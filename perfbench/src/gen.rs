//! Seeded workload inputs and their software reference values.
//!
//! Everything here runs before set-up, outside every timed window: the
//! program under test receives only the generated [`Task`]s, and each
//! delivery is compared against the [`Req::expect`] computed here.

use std::collections::HashSet;

use gendp::core::spm1d::INF;
use gendp::kernels::bellman_ford::Graph;
use gendp::kernels::chain::{chain_reordered, ChainParams};
use gendp::kernels::dtw::{dtw, dtw_band_asymmetric};
use gendp::kernels::pairhmm::{forward_f32, forward_log_fixed, PairHmmParams};
use gendp::kernels::poa::Poa;
use gendp::kernels::{bsw_i32, bsw_i8, Scoring};
use gendp::runtime::{Task, TaskValue};
use gendp::seq::{Anchor, DnaSeq};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One request of a workload, with the value it must produce.
#[derive(Debug, Clone)]
pub struct Req {
    /// Workload-unique id; digests are sorted by it.
    pub id: u64,
    /// Index of the sending tenant.
    pub tenant: usize,
    /// The task, as the program receives it.
    pub task: Task,
    /// Software reference value.
    pub expect: TaskValue,
    /// DP cells the task computes (checked against `RunStats` wherever a
    /// delivery carries them).
    pub cells: u64,
}

impl Req {
    /// Builds a request and computes its reference.
    pub fn new(id: u64, tenant: usize, task: Task) -> Req {
        Req {
            id,
            tenant,
            expect: reference(&task),
            cells: task.cells_estimate(),
            task,
        }
    }
}

/// A stream of the workload's random numbers, independent per `stream`.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Wide enough that the banded BSW reference computes the whole table.
const FULL_BAND: i32 = 1 << 20;

/// The software reference for one task: the `gendp-kernels` functions the
/// integration tests compare the accelerator against, and a plain sweep for
/// Bellman-Ford cut off after a fixed number of rounds.
pub fn reference(task: &Task) -> TaskValue {
    match task {
        Task::Bsw {
            query,
            target,
            scoring,
            mode,
        } => TaskValue::Score(bsw_i32(query, target, scoring, FULL_BAND, *mode).score),
        Task::BswSimd { pairs, scoring } => TaskValue::SimdScores(
            pairs
                .iter()
                .map(|(q, t)| bsw_i8(q, t, scoring, FULL_BAND).score as i8)
                .collect(),
        ),
        Task::PairHmm {
            read,
            haplotype,
            qual,
            scale,
            params,
        } => TaskValue::LogLikelihood(forward_log_fixed(
            read,
            &vec![*qual; read.len()],
            haplotype,
            params,
            *scale,
        )),
        Task::PairHmmFloat {
            read,
            haplotype,
            qual,
            params,
        } => TaskValue::Likelihood(forward_f32(
            read,
            &vec![*qual; read.len()],
            haplotype,
            params,
        )),
        Task::Dtw { xs, ys } => TaskValue::Distance(dtw(xs, ys).distance),
        Task::DtwBanded { xs, ys, width } => {
            TaskValue::Distance(dtw_band_asymmetric(xs, ys, 0, *width as i64 - 1).distance)
        }
        Task::Chain { anchors, params } => {
            TaskValue::ChainScores(chain_reordered(anchors, params).scores)
        }
        Task::Poa {
            graph,
            probe,
            scoring,
        } => TaskValue::Score(graph.align(probe, scoring).score),
        Task::BellmanFord {
            graph,
            source,
            rounds,
        } => TaskValue::Distances(bellman_ford_rounds(graph, *source, *rounds)),
    }
}

/// Exactly `rounds` in-order relaxation sweeps over the edge list on the
/// accelerator's 32-bit datapath, with its infinity sentinel: the
/// accelerator does not stop early, so `gendp-kernels`' converging
/// Bellman-Ford is not a reference for a cut-off run.
fn bellman_ford_rounds(graph: &Graph, source: usize, rounds: usize) -> Vec<i32> {
    let mut dist = vec![INF; graph.vertex_count()];
    dist[source] = 0;
    for _ in 0..rounds {
        for &(u, v, w) in graph.edges() {
            dist[v] = dist[v].min(dist[u] + w as i32);
        }
    }
    dist
}

fn seq(rng: &mut SmallRng, len: usize) -> DnaSeq {
    DnaSeq::random(len, rng)
}

fn signal(rng: &mut SmallRng, len: usize) -> Vec<i32> {
    (0..len).map(|_| rng.gen_range(0..200)).collect()
}

fn pairhmm(rng: &mut SmallRng, read: usize, hap: usize) -> Task {
    Task::PairHmm {
        read: seq(rng, read),
        haplotype: seq(rng, hap),
        qual: 30,
        scale: 1024,
        params: PairHmmParams::gatk(),
    }
}

/// A banded DTW task of `rows` × `width` cells; the column signal is
/// `width / 2` longer so the corner sits inside the band.
fn dtw_banded(rng: &mut SmallRng, rows: usize, width: usize) -> Task {
    Task::DtwBanded {
        xs: signal(rng, rows),
        ys: signal(rng, rows + width / 2),
        width,
    }
}

/// `reads-repeat` shapes: short-read mapping work, 700–1,100 cells each.
/// An odd count, so that in a rotation through them the median request
/// falls inside one shape's costs rather than on the edge between two.
#[derive(Debug, Clone, Copy)]
enum ReadShape {
    /// Local BSW, query × target.
    Bsw(usize, usize),
    /// Fixed-point PairHMM, read × haplotype.
    PairHmm(usize, usize),
    /// Banded DTW, rows × band width.
    DtwBanded(usize, usize),
}

const READ_SHAPES: [ReadShape; 9] = [
    ReadShape::Bsw(24, 32),
    ReadShape::Bsw(28, 36),
    ReadShape::Bsw(32, 30),
    ReadShape::PairHmm(20, 40),
    ReadShape::PairHmm(24, 36),
    ReadShape::PairHmm(30, 34),
    ReadShape::DtwBanded(96, 8),
    ReadShape::DtwBanded(100, 10),
    ReadShape::DtwBanded(88, 12),
];

/// Number of distinct `reads-repeat` shapes (one warm-up each).
pub const READ_SHAPE_COUNT: usize = READ_SHAPES.len();

/// One `reads-repeat` task of the given shape with fresh content.
pub fn read_task(rng: &mut SmallRng, shape: usize) -> Task {
    match READ_SHAPES[shape] {
        ReadShape::Bsw(q, t) => Task::bsw_local(seq(rng, q), seq(rng, t), Scoring::bwa_mem()),
        ReadShape::PairHmm(r, h) => pairhmm(rng, r, h),
        ReadShape::DtwBanded(m, w) => dtw_banded(rng, m, w),
    }
}

/// A `reads-repeat` task with a uniformly drawn shape.
pub fn random_read_task(rng: &mut SmallRng) -> Task {
    let shape = rng.gen_range(0..READ_SHAPES.len());
    read_task(rng, shape)
}

/// `tables-distinct` kinds, cycled by request id.
pub const TABLE_KINDS: usize = 4;

/// One `tables-distinct` task: `rows` × `cols` of the id's kind.
pub fn table_task(rng: &mut SmallRng, kind: usize, rows: usize, cols: usize) -> Task {
    match kind % TABLE_KINDS {
        0 => Task::bsw_local(seq(rng, cols), seq(rng, rows), Scoring::bwa_mem()),
        1 => Task::bsw_global(seq(rng, cols), seq(rng, rows), Scoring::bwa_mem()),
        2 => pairhmm(rng, rows, cols),
        _ => Task::dtw(signal(rng, rows), signal(rng, cols)),
    }
}

/// Smallest and largest table side on `tables-distinct`.
const SIDE_MIN: usize = 64;
const SIDE_MAX: usize = 128;
const STRATA: usize = 8;

/// `n` `tables-distinct` requests, no two sharing (kind, rows, cols).
///
/// Sides are drawn from `SIDE_MIN..=SIDE_MAX` stratified in blocks: every
/// run of `TABLE_KINDS * STRATA` requests gives each kind one row side and
/// one column side from each of eight equal strata, so any prefix of the
/// stream has nearly the same mix of sizes whatever the seed.
pub fn table_requests(seed: u64, n: usize) -> Vec<Req> {
    let mut r = rng(seed, 1);
    let mut used = HashSet::new();
    let stratum = |r: &mut SmallRng, s: usize| {
        let span = SIDE_MAX + 1 - SIDE_MIN;
        r.gen_range(SIDE_MIN + s * span / STRATA..SIDE_MIN + (s + 1) * span / STRATA)
    };
    let mut plan: Vec<(usize, usize)> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let kind = id % TABLE_KINDS;
        if id % (TABLE_KINDS * STRATA) == 0 {
            plan.clear();
            for _ in 0..TABLE_KINDS {
                let mut rows: Vec<usize> = (0..STRATA).collect();
                let mut cols: Vec<usize> = (0..STRATA).collect();
                shuffle(&mut r, &mut rows);
                shuffle(&mut r, &mut cols);
                plan.extend(rows.into_iter().zip(cols));
            }
        }
        let (rs, cs) = plan[kind * STRATA + (id % (TABLE_KINDS * STRATA)) / TABLE_KINDS];
        let (rows, cols) = loop {
            let shape = (stratum(&mut r, rs), stratum(&mut r, cs));
            if used.insert((kind, shape)) {
                break shape;
            }
        };
        out.push(Req::new(id as u64, 0, table_task(&mut r, kind, rows, cols)));
    }
    out
}

fn shuffle<T>(r: &mut SmallRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, r.gen_range(0..=i));
    }
}

/// A `serve-mixed` tenant: the three classes of the `bench-serve` mix,
/// less semi-global BSW and FP PairHMM. On random inputs the program
/// disagrees with the references for those two: DPAx's semi-global score
/// leaves out the empty overlap that `bsw_i32` scores 0, and FP PairHMM
/// differs from `forward_f32` in the last bit on about one task in ten.
pub struct MixTenant {
    /// Tenant name on the server.
    pub name: &'static str,
    /// Distinct task kinds in its rotation (one warm-up each).
    pub kinds: usize,
    make: fn(&mut SmallRng, usize) -> Task,
}

impl MixTenant {
    /// The tenant's `i`-th task: kinds rotate by `i`.
    pub fn task(&self, rng: &mut SmallRng, i: usize) -> Task {
        (self.make)(rng, i)
    }
}

/// Interactive, Normal and Batch tenants, in that order.
pub const MIX: [MixTenant; 3] = [
    MixTenant {
        name: "interactive",
        kinds: 3,
        make: interactive_task,
    },
    MixTenant {
        name: "pipeline",
        kinds: 3,
        make: pipeline_task,
    },
    MixTenant {
        name: "batch",
        kinds: 3,
        make: batch_task,
    },
];

/// Latency-sensitive read mapping: local BSW, banded DTW, chaining.
fn interactive_task(rng: &mut SmallRng, i: usize) -> Task {
    match i % 3 {
        0 => Task::bsw_local(seq(rng, 24), seq(rng, 32), Scoring::bwa_mem()),
        1 => Task::DtwBanded {
            xs: signal(rng, 20),
            ys: signal(rng, 24),
            width: 8,
        },
        _ => {
            let mut rpos = 0;
            let anchors: Vec<Anchor> = (0..10)
                .map(|_| {
                    rpos += rng.gen_range(5..40);
                    Anchor {
                        rpos,
                        qpos: rpos - rng.gen_range(0..5),
                        span: 15,
                    }
                })
                .collect();
            Task::Chain {
                anchors,
                params: ChainParams {
                    n_prev: 8,
                    ..ChainParams::minimap2(15.0)
                },
            }
        }
    }
}

/// Default-priority alignment: global BSW, SIMD BSW, fixed-point PairHMM.
fn pipeline_task(rng: &mut SmallRng, i: usize) -> Task {
    match i % 3 {
        0 => Task::bsw_global(seq(rng, 24), seq(rng, 24), Scoring::bwa_mem()),
        1 => Task::bsw_simd(
            (0..4).map(|_| (seq(rng, 16), seq(rng, 16))).collect(),
            Scoring::bwa_mem(),
        ),
        _ => pairhmm(rng, 20, 28),
    }
}

/// Background polishing: POA, Bellman-Ford, full DTW.
fn batch_task(rng: &mut SmallRng, i: usize) -> Task {
    match i % 3 {
        0 => {
            let mut graph = Poa::new();
            graph.add_sequence(&seq(rng, 24), &Scoring::racon());
            Task::Poa {
                graph,
                probe: seq(rng, 24),
                scoring: Scoring::racon(),
            }
        }
        1 => {
            let n = 14;
            let mut graph = Graph::new(n);
            for v in 0..n - 1 {
                graph.add_edge(v, v + 1, rng.gen_range(1..9));
                let far = rng.gen_range(0..n);
                if far != v {
                    graph.add_edge(v, far, rng.gen_range(1..20));
                }
            }
            Task::BellmanFord {
                graph,
                source: 0,
                rounds: 4,
            }
        }
        _ => Task::dtw(signal(rng, 18), signal(rng, 18)),
    }
}

/// An open-loop schedule: Poisson arrivals at `rates[t]` requests/s for
/// each tenant `t` over `seconds`, merged in due order. Returns
/// (due offset in seconds, tenant, tenant-local index).
pub fn poisson_schedule(r: &mut SmallRng, rates: &[f64], seconds: f64) -> Vec<(f64, usize, usize)> {
    let mut all = Vec::new();
    for (t, &rate) in rates.iter().enumerate() {
        let mut at = 0.0;
        let mut i = 0;
        loop {
            at += -(1.0 - r.gen::<f64>()).ln() / rate;
            if at >= seconds {
                break;
            }
            all.push((at, t, i));
            i += 1;
        }
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shapes_are_distinct_and_in_range() {
        let reqs = table_requests(7, 600);
        let mut seen = HashSet::new();
        for r in &reqs {
            let (rows, cols) = match &r.task {
                Task::Bsw { query, target, .. } => (target.len(), query.len()),
                Task::PairHmm {
                    read, haplotype, ..
                } => (read.len(), haplotype.len()),
                Task::Dtw { xs, ys } => (xs.len(), ys.len()),
                other => panic!("unexpected task {other:?}"),
            };
            assert!((SIDE_MIN..=SIDE_MAX).contains(&rows));
            assert!((SIDE_MIN..=SIDE_MAX).contains(&cols));
            assert!(seen.insert((r.id % 4, rows, cols)));
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = table_requests(3, 40);
        let b = table_requests(3, 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.expect, y.expect);
            assert_eq!(x.cells, y.cells);
        }
    }

    #[test]
    fn bellman_ford_reference_stops_after_the_given_rounds() {
        let mut g = Graph::new(4);
        g.add_edge(2, 3, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(0, 1, 1);
        assert_eq!(bellman_ford_rounds(&g, 0, 1), vec![0, 1, INF, INF]);
        assert_eq!(bellman_ford_rounds(&g, 0, 3), vec![0, 1, 2, 3]);
    }
}
