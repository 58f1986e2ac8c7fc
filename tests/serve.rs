//! End-to-end tests of the multi-tenant alignment service: correctness
//! under fault injection across shards, admission control, and the
//! framed wire protocol over the in-process duplex transport.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use gendp::kernels::bellman_ford::Graph;
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::Scoring;
use gendp::runtime::{
    silence_injected_panics, DeviceConfig, FaultConfig, RetryPolicy, Task, TaskValue,
};
use gendp::seq::{Anchor, DnaSeq};
use gendp::serve::{
    duplex, AdmissionError, Priority, RateLimit, ServeConfig, Server, TenantConfig, Ticket,
    WireClient, WireOutcome,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn seq(rng: &mut SmallRng, len: usize) -> DnaSeq {
    DnaSeq::random(len, rng)
}

/// One of each kernel kind, cycling with `i`, deterministic in `rng`.
fn mixed_task(rng: &mut SmallRng, i: usize) -> Task {
    match i % 9 {
        0 => Task::bsw_local(seq(rng, 12), seq(rng, 16), Scoring::bwa_mem()),
        1 => Task::bsw_simd(
            (0..4).map(|_| (seq(rng, 8), seq(rng, 8))).collect(),
            Scoring::bwa_mem(),
        ),
        2 => Task::PairHmm {
            read: seq(rng, 10),
            haplotype: seq(rng, 14),
            qual: 30,
            scale: 1024,
            params: PairHmmParams::gatk(),
        },
        3 => Task::PairHmmFloat {
            read: seq(rng, 8),
            haplotype: seq(rng, 12),
            qual: 30,
            params: PairHmmParams::gatk(),
        },
        4 => {
            let xs: Vec<i32> = (0..10).map(|_| rng.gen_range(0..100)).collect();
            let ys: Vec<i32> = (0..10).map(|_| rng.gen_range(0..100)).collect();
            Task::dtw(xs, ys)
        }
        5 => {
            let xs: Vec<i32> = (0..10).map(|_| rng.gen_range(0..100)).collect();
            let ys: Vec<i32> = (0..12).map(|_| rng.gen_range(0..100)).collect();
            Task::DtwBanded { xs, ys, width: 6 }
        }
        6 => {
            let mut rpos = 0i32;
            let anchors: Vec<Anchor> = (0..8)
                .map(|_| {
                    rpos += rng.gen_range(5..30);
                    Anchor {
                        rpos,
                        qpos: rpos - rng.gen_range(0..4),
                        span: 11,
                    }
                })
                .collect();
            Task::Chain {
                anchors,
                params: ChainParams {
                    n_prev: 8,
                    ..ChainParams::minimap2(11.0)
                },
            }
        }
        7 => {
            let backbone = seq(rng, 14);
            let mut graph = Poa::new();
            graph.add_sequence(&backbone, &Scoring::racon());
            Task::Poa {
                graph,
                probe: seq(rng, 14),
                scoring: Scoring::racon(),
            }
        }
        _ => {
            let n = 10;
            let mut graph = Graph::new(n);
            for v in 0..n - 1 {
                graph.add_edge(v, v + 1, rng.gen_range(1..9));
            }
            graph.add_edge(0, n - 1, 40);
            Task::BellmanFord {
                graph,
                source: 0,
                rounds: 3,
            }
        }
    }
}

fn faulty_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        shard_config: DeviceConfig {
            int_arrays: 4,
            float_arrays: 1,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            },
            // 5% rate faults plus one permanently broken int slot per
            // shard: rate decisions hash batch position (so how many
            // fire depends on batch shapes, which depend on timing),
            // but the broken slot faults on every attempt placed there
            // — the redispatch/retry path is exercised no matter how
            // the scheduler slices the batches.
            fault: Some(FaultConfig {
                broken_slots: 0b1,
                ..FaultConfig::uniform(7, 50_000)
            }),
            ..DeviceConfig::default()
        },
        batch_max: 16,
        quantum_cells: 256,
        dispatch_queue: 2,
        ..ServeConfig::default()
    }
}

/// The tentpole invariant: a 3-tenant mixed-kernel workload on two
/// shards under 5% fault injection loses nothing, and every value
/// matches the direct single-task execution of the same task.
#[test]
fn mixed_workload_on_faulty_shards_is_lossless_and_correct() {
    silence_injected_panics();
    let tenants = vec![
        TenantConfig::new("mapper").priority(Priority::Interactive),
        TenantConfig::new("caller"),
        TenantConfig::new("polisher").priority(Priority::Batch),
    ];
    let mut server = Server::start(faulty_config(), tenants).expect("server start");

    let mut rng = SmallRng::seed_from_u64(99);
    let mut expected: Vec<TaskValue> = Vec::new();
    let mut tickets: Vec<Ticket> = Vec::new();
    for i in 0..300 {
        let task = mixed_task(&mut rng, i);
        let (reference, _) = task.execute(4).expect("reference execution");
        expected.push(reference);
        let tenant = ["mapper", "caller", "polisher"][i % 3];
        let client = server.client(tenant).expect("tenant exists");
        tickets.push(client.submit(task).expect("admitted"));
    }

    for (i, (ticket, want)) in tickets.into_iter().zip(expected).enumerate() {
        let completed = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("delivered within 30s")
            .unwrap_or_else(|e| panic!("task {i} failed: {e}"));
        assert_eq!(completed.value, want, "task {i} value diverged");
        assert!(completed.shard < 2);
        assert!(completed.attempts >= 1);
    }

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.submitted, 300);
    assert_eq!(stats.totals.accepted, 300);
    assert_eq!(stats.totals.completed, 300);
    assert_eq!(stats.totals.failed, 0);
    assert!(stats.totals.drained(), "zero lost tasks");
    assert!(
        stats.recovery.faults_injected > 0,
        "the fault plan actually fired"
    );
    // Both fault domains served work.
    for shard in &stats.shards {
        assert!(shard.device.batches > 0, "shard {} sat idle", shard.shard);
    }
}

#[test]
fn admission_rejects_invalid_rate_limited_and_shutdown() {
    let tenants = vec![
        TenantConfig::new("free"),
        TenantConfig::new("limited").rate(RateLimit {
            requests_per_sec: 0.0,
            burst: 1.0,
        }),
    ];
    let mut server = Server::start(ServeConfig::default(), tenants).expect("server start");

    // Preflight rejection: an empty query can never execute.
    let free = server.client("free").expect("tenant");
    let invalid = Task::bsw_local(
        DnaSeq::default(),
        "ACGT".parse().unwrap(),
        Scoring::bwa_mem(),
    );
    match free.submit(invalid) {
        Err(AdmissionError::Invalid(report)) => {
            assert!(report.contains("empty"), "unexpected report: {report}")
        }
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Token bucket: burst of one, zero refill — second submit rejects.
    let limited = server.client("limited").expect("tenant");
    let ok_task = || {
        Task::bsw_local(
            "ACGTAC".parse().unwrap(),
            "ACGTAC".parse().unwrap(),
            Scoring::bwa_mem(),
        )
    };
    let first = limited.submit(ok_task()).expect("burst token");
    assert!(matches!(
        limited.submit(ok_task()),
        Err(AdmissionError::RateLimited)
    ));
    assert!(first.wait().is_ok());

    // Unknown tenants never get a client.
    assert!(server.client("nobody").is_none());

    // After shutdown every submit rejects and counters balance.
    server.shutdown();
    assert!(matches!(
        free.submit(ok_task()),
        Err(AdmissionError::ShuttingDown)
    ));
    let stats = server.stats();
    assert!(stats.totals.drained());
    assert_eq!(stats.totals.rejected_invalid, 1);
    assert_eq!(stats.totals.rejected_rate, 1);
}

/// With a configured shard cycle rate, a request whose certified cycle
/// lower bound cannot fit its deadline is rejected at admission with
/// the stable `deadline-infeasible` code, instead of being admitted
/// only to expire in the queue.
#[test]
fn certified_deadline_infeasible_rejects_at_admission() {
    let config = ServeConfig {
        // 1k simulated cycles per wall-second: a deliberately glacial
        // budget so small tasks are still provably late on tight
        // deadlines.
        cycle_rate: Some(1_000),
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, vec![TenantConfig::new("t")]).expect("server start");
    let client = server.client("t").expect("tenant");
    let task = || {
        Task::bsw_local(
            "ACGTACGTACGT".parse().unwrap(),
            "ACGTTCGTACGTTCGT".parse().unwrap(),
            Scoring::bwa_mem(),
        )
    };

    // A BSW pair certifies to a cycle floor in the hundreds; at 1k
    // cycles/sec a 1 ms deadline is provably unreachable.
    let err = client
        .submit_with_deadline(task(), Duration::from_millis(1))
        .unwrap_err();
    assert_eq!(err, AdmissionError::DeadlineInfeasible);
    assert_eq!(err.code(), "deadline-infeasible");

    // The same task with a roomy deadline admits and completes, and a
    // deadline-free submit never trips the gate.
    let ticket = client
        .submit_with_deadline(task(), Duration::from_secs(60))
        .expect("feasible deadline");
    assert!(ticket.wait().is_ok());
    assert!(client.submit(task()).expect("no deadline").wait().is_ok());

    server.shutdown();
    let stats = server.stats();
    assert!(stats.totals.drained());
    assert_eq!(stats.totals.rejected_infeasible, 1);
    assert_eq!(stats.totals.rejected(), 1);
}

#[test]
fn in_flight_quota_sheds_the_open_loop_excess() {
    let tenants = vec![TenantConfig::new("t").quotas(4, 4)];
    let mut server = Server::start(ServeConfig::default(), tenants).expect("server start");
    let client = server.client("t").expect("tenant");
    let mut rng = SmallRng::seed_from_u64(3);

    // Fire far more than the quota without waiting; some are admitted,
    // the excess rejects with a quota error, and nothing is lost.
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..64 {
        match client.submit(Task::bsw_local(
            seq(&mut rng, 32),
            seq(&mut rng, 32),
            Scoring::bwa_mem(),
        )) {
            Ok(t) => tickets.push(t),
            Err(AdmissionError::OverQuota | AdmissionError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(rejected > 0, "quota never engaged");
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }
    server.shutdown();
    let stats = server.stats();
    assert!(stats.totals.drained());
    assert_eq!(stats.totals.rejected_quota, rejected);
}

/// The framed protocol end to end over the in-process duplex transport:
/// ping, pipelined submissions from two tenants, inline rejections for
/// an unknown tenant and an invalid task, and a clean drain on close.
#[test]
fn wire_connection_pipelines_and_drains() {
    silence_injected_panics();
    let tenants = vec![TenantConfig::new("alpha"), TenantConfig::new("beta")];
    let mut server = Server::start(faulty_config(), tenants).expect("server start");

    let ((server_reader, server_writer), (client_reader, client_writer)) = duplex();
    thread::scope(|scope| {
        let server = &server;
        let conn = scope.spawn(move || server.serve_connection(server_reader, server_writer));

        let mut client = WireClient::new(client_reader, client_writer);
        client.ping().expect("pong");

        // Pipeline a mixed-kernel burst without reading anything back.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut expected: HashMap<u64, TaskValue> = HashMap::new();
        for i in 0..40 {
            let task = mixed_task(&mut rng, i);
            let (value, _) = task.execute(4).expect("reference execution");
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            let id = client.submit(tenant, task).expect("submit frame");
            expected.insert(id, value);
        }
        let ghost_id = client
            .submit("ghost", Task::dtw(vec![1], vec![1]))
            .expect("submit frame");
        let invalid_id = client
            .submit("alpha", Task::dtw(vec![], vec![]))
            .expect("submit frame");

        // Every request gets exactly one response, in completion order.
        for _ in 0..expected.len() + 2 {
            let response = client
                .recv()
                .expect("read frame")
                .expect("connection still open");
            match response.outcome {
                WireOutcome::Ok {
                    value, attempts, ..
                } => {
                    let want = expected.remove(&response.id).expect("known id, once");
                    assert_eq!(value, want, "id {} value diverged", response.id);
                    assert!(attempts >= 1);
                }
                WireOutcome::Rejected { code, .. } if response.id == ghost_id => {
                    assert_eq!(code, "unknown-tenant");
                }
                WireOutcome::Rejected { code, .. } if response.id == invalid_id => {
                    assert_eq!(code, "invalid");
                }
                other => panic!("unexpected response {}: {other:?}", response.id),
            }
        }
        assert!(expected.is_empty(), "every submission answered");

        // Closing the client ends the server's reader loop cleanly.
        drop(client);
        conn.join()
            .expect("connection thread")
            .expect("clean close");
    });

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.completed, 40);
    assert_eq!(stats.totals.rejected_invalid, 1);
    assert!(stats.totals.drained());
}

/// Served latency counts admission pricing, which for POA is a full
/// prepare and verify on every request: a POA request's latency is at
/// least as long as its own `submit` call.
#[test]
fn served_latency_includes_admission_pricing() {
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, vec![TenantConfig::new("polisher")]).expect("start");
    let client = server.client("polisher").expect("tenant exists");
    let mut rng = SmallRng::seed_from_u64(17);
    for _ in 0..4 {
        let task = mixed_task(&mut rng, 7);
        assert!(matches!(task, Task::Poa { .. }));
        let started = Instant::now();
        let ticket = client.submit(task).expect("admitted");
        let submit = started.elapsed();
        let completed = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("delivered within 30s")
            .expect("served");
        assert!(
            completed.latency >= submit,
            "latency {:?} is shorter than its submit call {submit:?}",
            completed.latency
        );
    }
    server.shutdown();
}

/// Each shard's device snapshot carries its template counters: repeated
/// shapes hit, and every templated request is a hit or a miss.
#[test]
fn shard_stats_report_template_counters() {
    let config = ServeConfig {
        shards: 2,
        shard_config: DeviceConfig {
            workers: 1,
            ..DeviceConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, vec![TenantConfig::new("mapper")]).expect("start");
    let client = server.client("mapper").expect("tenant exists");
    let mut rng = SmallRng::seed_from_u64(18);
    let tickets: Vec<Ticket> = (0..24)
        .map(|_| {
            let task = Task::bsw_local(seq(&mut rng, 12), seq(&mut rng, 16), Scoring::bwa_mem());
            client.submit(task).expect("admitted")
        })
        .collect();
    for ticket in tickets {
        ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("delivered within 30s")
            .expect("served");
    }
    server.shutdown();
    let stats = server.stats();
    let (hits, misses) = stats.shards.iter().fold((0, 0), |(h, m), shard| {
        let t = shard.device.templates;
        assert!(t.misses <= 1, "one shape, one template per shard worker");
        (h + t.hits, m + t.misses)
    });
    assert_eq!(hits + misses, 24);
    assert!(hits >= 22);
}
