//! Service-level chaos tests for the self-healing shard lifecycle:
//! killing and retiring shards under sustained mixed-kernel load,
//! deadline enforcement, wire-path survival of shard death, and
//! organic detection of a fully-quarantined shard.
//!
//! The injected fault rate is tunable so CI can crank it up:
//! `GENDP_SERVE_CHAOS_FAULT_PPM` (parts per million per execution
//! attempt, default 50 000 = 5%).

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
    duplex, LifecyclePolicy, Priority, ServeConfig, ServeError, Server, ServerStats, ShardState,
    TenantConfig, Ticket, WireClient, WireOutcome,
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

fn chaos_fault_ppm() -> u32 {
    std::env::var("GENDP_SERVE_CHAOS_FAULT_PPM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000)
}

/// N shards, each with one permanently broken int slot plus rate
/// faults at the (env-tunable) chaos rate.
fn chaos_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        shard_config: DeviceConfig {
            int_arrays: 4,
            float_arrays: 1,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            fault: Some(FaultConfig {
                broken_slots: 0b1,
                ..FaultConfig::uniform(11, chaos_fault_ppm())
            }),
            ..DeviceConfig::default()
        },
        batch_max: 16,
        quantum_cells: 256,
        ..ServeConfig::default()
    }
}

/// The loss-free kill/retire invariant, on two loads: three small
/// shards where one shard is killed and another retired mid-stream, and
/// a sustained load of 2,400 requests on two paper-shaped shards where
/// shard 0 is killed after 300 submissions.
#[test]
fn kill_and_retire_under_load_lose_nothing() {
    silence_injected_panics();
    kill_and_retire(chaos_config(3), 450, 150, Some(300));
    let sustained = ServeConfig {
        shards: 2,
        shard_config: DeviceConfig {
            int_arrays: 16,
            float_arrays: 1,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            },
            fault: Some(FaultConfig::uniform(2023, chaos_fault_ppm())),
            ..DeviceConfig::default()
        },
        batch_max: 64,
        quantum_cells: 2048,
        ..ServeConfig::default()
    };
    kill_and_retire(sustained, 3 * 800, 300, None);
}

/// Submits `tasks` mixed-kernel requests from three tenants without
/// waiting for any of them, abruptly kills shard 0 once `kill_at` are
/// submitted and retires shard 1 at `retire_at`. Asserts that no ticket
/// is lost or failed, that every delivered value matches the direct
/// single-task execution, and that an auto-respawned replacement joins
/// the pool and serves traffic. Prints how long after the kill a
/// replacement first completed work.
fn kill_and_retire(config: ServeConfig, tasks: usize, kill_at: usize, retire_at: Option<usize>) {
    let tenants = vec![
        TenantConfig::new("mapper").priority(Priority::Interactive),
        TenantConfig::new("caller"),
        TenantConfig::new("polisher").priority(Priority::Batch),
    ];
    let initial = config.shards;
    let mut server = Server::start(config, tenants).expect("server start");
    let clients: Vec<_> = ["mapper", "caller", "polisher"]
        .iter()
        .map(|t| server.client(t).expect("tenant exists"))
        .collect();

    let mut rng = SmallRng::seed_from_u64(4242);
    let load: Vec<(Task, TaskValue)> = (0..tasks)
        .map(|i| {
            let task = mixed_task(&mut rng, i);
            let (reference, _) = task.execute(4).expect("reference execution");
            (task, reference)
        })
        .collect();

    let recovery_ms = thread::scope(|scope| {
        let server = &server;
        let mut recovery = None;
        let mut tickets: Vec<(Ticket, TaskValue)> = Vec::with_capacity(tasks);
        for (i, (task, want)) in load.into_iter().enumerate() {
            if i == kill_at {
                server.kill_shard(0).expect("shard 0 is alive to kill");
                let killed = Instant::now();
                recovery =
                    Some(scope.spawn(move || replacement_served_after(server, initial, killed)));
            }
            if Some(i) == retire_at {
                server
                    .retire_shard(1)
                    .expect("shard 1 is dispatchable to retire");
            }
            tickets.push((clients[i % 3].submit(task).expect("admitted"), want));
        }

        for (i, (ticket, want)) in tickets.into_iter().enumerate() {
            let completed = ticket
                .wait_timeout(Duration::from_secs(60))
                .expect("delivered within 60s")
                .unwrap_or_else(|e| panic!("task {i} failed: {e}"));
            assert_eq!(completed.value, want, "task {i} value diverged");
        }

        // A replacement must actually serve: feed small follow-up waves
        // until one has completed work and been promoted.
        let patience = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = server.stats();
            if stats
                .shards
                .iter()
                .any(|s| s.shard >= initial && s.completed > 0 && s.state == ShardState::Healthy)
            {
                break;
            }
            assert!(
                Instant::now() < patience,
                "replacement shard never served traffic: {:?}",
                stats
                    .shards
                    .iter()
                    .map(|s| (s.shard, s.state, s.completed))
                    .collect::<Vec<_>>()
            );
            for i in 0..8 {
                let task = mixed_task(&mut rng, i);
                let (want, _) = task.execute(4).expect("reference execution");
                let got = clients[0]
                    .submit(task)
                    .expect("admitted")
                    .wait()
                    .expect("follow-up wave completes");
                assert_eq!(got.value, want);
            }
        }
        recovery
            .expect("the kill point lies inside the load")
            .join()
            .expect("recovery watcher")
    });
    println!(
        "{tasks} tasks on {initial} shards, shard 0 killed after {kill_at} submissions: \
         a replacement served {recovery_ms:.1} ms after the kill"
    );

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.failed, 0);
    assert!(stats.totals.drained(), "zero lost tickets");
    assert!(stats.lifecycle.died >= 1, "the killed shard was detected");
    assert_eq!(
        stats.lifecycle.retired,
        u64::from(retire_at.is_some()),
        "the retirement completed"
    );
    assert!(stats.lifecycle.respawned >= 1, "a replacement was spawned");
    let state_of = |id: usize| {
        stats
            .shards
            .iter()
            .find(|s| s.shard == id)
            .map(|s| s.state)
            .expect("shard in stats")
    };
    assert_eq!(state_of(0), ShardState::Dead, "killed shard");
    if retire_at.is_some() {
        assert_eq!(state_of(1), ShardState::Dead, "retired shard drained");
    }
}

/// Polls the server until a shard spawned after the initial pool (spawn
/// id at or past `initial`) has completed work, and returns the
/// milliseconds since `killed`.
fn replacement_served_after(server: &Server, initial: usize, killed: Instant) -> f64 {
    let patience = killed + Duration::from_secs(60);
    loop {
        if server
            .stats()
            .shards
            .iter()
            .any(|s| s.shard >= initial && s.completed > 0)
        {
            return killed.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            Instant::now() < patience,
            "no replacement shard served work within 60 s of the kill"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

/// Kill and retire reach an idle pool: with no traffic, only the call
/// itself can wake the shard it names.
#[test]
fn idle_pool_kill_and_retire_without_traffic() {
    let config = ServeConfig {
        shards: 3,
        shard_config: DeviceConfig {
            int_arrays: 2,
            float_arrays: 1,
            workers: 1,
            ..DeviceConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, vec![TenantConfig::new("t")]).expect("server start");
    let within_5s = |what: &str, done: &dyn Fn(&ServerStats) -> bool| {
        let patience = Instant::now() + Duration::from_secs(5);
        while !done(&server.stats()) {
            assert!(Instant::now() < patience, "{what} within 5 s");
            thread::sleep(Duration::from_millis(1));
        }
    };
    let state_of = |stats: &ServerStats, id: usize| {
        stats
            .shards
            .iter()
            .find(|s| s.shard == id)
            .map(|s| s.state)
            .expect("shard in stats")
    };

    server.kill_shard(0).expect("shard 0 is alive to kill");
    within_5s("the killed idle shard dies and is replaced", &|stats| {
        state_of(stats, 0) == ShardState::Dead && stats.lifecycle.respawned == 1
    });
    server
        .retire_shard(1)
        .expect("shard 1 is dispatchable to retire");
    within_5s("the retired idle shard drains", &|stats| {
        state_of(stats, 1) == ShardState::Dead && stats.lifecycle.retired == 1
    });

    let completed = server
        .client("t")
        .expect("tenant")
        .submit(Task::bsw_local(
            "ACGTACGT".parse().unwrap(),
            "ACGTTCGT".parse().unwrap(),
            Scoring::bwa_mem(),
        ))
        .expect("admitted")
        .wait_timeout(Duration::from_secs(5))
        .expect("delivered within 5 s")
        .expect("a surviving shard serves");
    assert!(completed.shard >= 2, "served by shard {}", completed.shard);

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.lifecycle.died, 1);
    assert_eq!(stats.lifecycle.retired, 1);
    assert!(stats.totals.drained());
}

/// Deterministic replay: the same seed drives the same task stream to
/// the same values, chaos or not — byte-identical across two runs.
#[test]
fn chaos_workload_is_deterministic_under_fixed_seed() {
    silence_injected_panics();
    let run = || -> Vec<TaskValue> {
        let mut server =
            Server::start(chaos_config(2), vec![TenantConfig::new("t")]).expect("server start");
        let client = server.client("t").expect("tenant");
        let mut rng = SmallRng::seed_from_u64(77);
        let tickets: Vec<Ticket> = (0..90)
            .map(|i| client.submit(mixed_task(&mut rng, i)).expect("admitted"))
            .collect();
        let values = tickets
            .into_iter()
            .map(|t| t.wait().expect("completes").value)
            .collect();
        server.shutdown();
        values
    };
    assert_eq!(run(), run(), "same seed, same values");
}

/// Deadline semantics: already-expired work is rejected with the
/// stable `deadline-exceeded` code and never occupies a dispatch slot;
/// tenant-default deadlines apply to plain submits; generous deadlines
/// do not interfere with completion.
#[test]
fn expired_deadlines_reject_without_dispatch() {
    let config = ServeConfig {
        shards: 1,
        shard_config: DeviceConfig {
            int_arrays: 2,
            float_arrays: 1,
            workers: 1,
            ..DeviceConfig::default()
        },
        ..ServeConfig::default()
    };
    let tenants = vec![
        TenantConfig::new("explicit"),
        TenantConfig::new("strict").deadline(Duration::ZERO),
        TenantConfig::new("patient").deadline(Duration::from_secs(30)),
    ];
    let mut server = Server::start(config, tenants).expect("server start");
    let task = || {
        Task::bsw_local(
            "ACGTACGT".parse().unwrap(),
            "ACGTTCGT".parse().unwrap(),
            Scoring::bwa_mem(),
        )
    };

    // Per-request deadline of zero: admitted, then expired at the
    // dispatch gate.
    let explicit = server.client("explicit").expect("tenant");
    let tickets: Vec<Ticket> = (0..20)
        .map(|_| {
            explicit
                .submit_with_deadline(task(), Duration::ZERO)
                .expect("admitted")
        })
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            Err(e @ ServeError::DeadlineExceeded) => {
                assert_eq!(e.code(), "deadline-exceeded");
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
    }

    // Tenant-default deadline of zero behaves identically on a plain
    // submit.
    let strict = server.client("strict").expect("tenant");
    assert!(matches!(
        strict.submit(task()).expect("admitted").wait(),
        Err(ServeError::DeadlineExceeded)
    ));

    // A generous default deadline completes normally.
    let patient = server.client("patient").expect("tenant");
    let completed = patient
        .submit(task())
        .expect("admitted")
        .wait()
        .expect("completes well inside its deadline");
    assert!(matches!(completed.value, TaskValue::Score(_)));

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.deadline_expired, 21);
    assert_eq!(stats.totals.completed, 1);
    assert_eq!(stats.totals.failed, 0);
    assert!(stats.totals.drained(), "expiries balance the ledger");
    // Only the patient tenant's single task ever reached the device.
    assert_eq!(
        stats.shards[0].completed, 1,
        "expired work must never occupy a dispatch slot"
    );
    let by_code: HashMap<&str, u64> = stats.totals.by_code().into_iter().collect();
    assert_eq!(by_code["deadline-exceeded"], 21);
}

/// The wire path survives shard death: pipeline a burst over the
/// duplex transport, kill a shard mid-stream, and every submission
/// still gets exactly one correct response. Shard-status probes see
/// the pool before and after.
#[test]
fn wire_pipelined_completions_survive_shard_death() {
    silence_injected_panics();
    let mut server =
        Server::start(chaos_config(3), vec![TenantConfig::new("alpha")]).expect("server start");

    let ((server_reader, server_writer), (client_reader, client_writer)) = duplex();
    thread::scope(|scope| {
        let server = &server;
        let conn = scope.spawn(move || server.serve_connection(server_reader, server_writer));

        let mut client = WireClient::new(client_reader, client_writer);
        let frames = client.shard_status().expect("status probe");
        assert_eq!(frames.len(), 3, "three shards at start");
        assert!(frames.iter().all(|f| f.state.is_dispatchable()));

        let mut rng = SmallRng::seed_from_u64(13);
        let mut expected: HashMap<u64, TaskValue> = HashMap::new();
        for i in 0..60 {
            if i == 30 {
                server.kill_shard(0).expect("shard 0 is alive to kill");
            }
            let task = mixed_task(&mut rng, i);
            let (value, _) = task.execute(4).expect("reference execution");
            let id = client.submit("alpha", task).expect("submit frame");
            expected.insert(id, value);
        }

        for _ in 0..60 {
            let response = client
                .recv()
                .expect("read frame")
                .expect("connection still open");
            match response.outcome {
                WireOutcome::Ok { value, .. } => {
                    let want = expected.remove(&response.id).expect("known id, once");
                    assert_eq!(value, want, "id {} value diverged", response.id);
                }
                other => panic!("unexpected response {}: {other:?}", response.id),
            }
        }
        assert!(expected.is_empty(), "every submission answered");

        // The probe now reports the dead shard and its replacement.
        let frames = client.shard_status().expect("status probe");
        assert!(
            frames
                .iter()
                .any(|f| f.id == 0 && f.state == ShardState::Dead),
            "killed shard visible on the wire: {frames:?}"
        );
        assert!(
            frames.iter().any(|f| f.id >= 3),
            "replacement visible on the wire: {frames:?}"
        );

        drop(client);
        conn.join()
            .expect("connection thread")
            .expect("clean close");
    });

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.completed, 60);
    assert!(stats.totals.drained());
    assert!(stats.lifecycle.died >= 1);
}

/// Protocol robustness: frames with an unknown version byte or an
/// undecodable payload draw a structured error frame, and the
/// connection stays open for well-formed traffic afterwards.
#[test]
fn malformed_frames_draw_errors_without_dropping_the_connection() {
    use gendp::serve::wire::{read_frame, write_frame_versioned, Request, Response};
    use gendp::serve::WIRE_VERSION;

    let mut server =
        Server::start(ServeConfig::default(), vec![TenantConfig::new("t")]).expect("server start");

    let ((server_reader, server_writer), (mut client_reader, mut client_writer)) = duplex();
    thread::scope(|scope| {
        let server = &server;
        let conn = scope.spawn(move || server.serve_connection(server_reader, server_writer));

        let recv = |reader: &mut dyn std::io::Read| -> Response {
            let (version, payload) = read_frame(reader)
                .expect("read frame")
                .expect("connection open");
            assert_eq!(version, WIRE_VERSION);
            Response::decode(&payload).expect("valid response frame")
        };

        // A frame from the future: version 9 of an otherwise valid ping.
        let ping = Request::Ping { id: 1 }.encode();
        write_frame_versioned(&mut client_writer, 9, &ping).expect("write frame");
        match recv(&mut client_reader).outcome {
            WireOutcome::Error { code, detail } => {
                assert_eq!(code, "unsupported-version");
                assert!(detail.contains('9'), "names the bad version: {detail}");
            }
            other => panic!("expected version error, got {other:?}"),
        }

        // A current-version frame whose payload is garbage.
        write_frame_versioned(&mut client_writer, WIRE_VERSION, &[0xEE, 0xEE, 0xEE])
            .expect("write frame");
        match recv(&mut client_reader).outcome {
            WireOutcome::Error { code, .. } => assert_eq!(code, "bad-frame"),
            other => panic!("expected decode error, got {other:?}"),
        }

        // The connection survived both: a well-formed ping still works.
        write_frame_versioned(
            &mut client_writer,
            WIRE_VERSION,
            &Request::Ping { id: 7 }.encode(),
        )
        .expect("write frame");
        let response = recv(&mut client_reader);
        assert_eq!(response.id, 7);
        assert!(matches!(response.outcome, WireOutcome::Pong));

        drop(client_writer);
        drop(client_reader);
        conn.join()
            .expect("connection thread")
            .expect("clean close");
    });
    server.shutdown();
}

/// Organic self-healing: a joined shard whose int class rots down to
/// its last healthy slot (via the quarantine machine, not a kill
/// switch) is detected by the crippled-streak policy, declared dead,
/// and replaced — while every task it ever touched still completes
/// correctly.
#[test]
fn fully_quarantined_shard_dies_and_is_replaced() {
    silence_injected_panics();
    let config = ServeConfig {
        shards: 1,
        shard_config: DeviceConfig {
            int_arrays: 2,
            float_arrays: 1,
            workers: 1,
            ..DeviceConfig::default()
        },
        batch_max: 16,
        quantum_cells: 256,
        // One crippled snapshot is enough: once the rotten shard reads
        // as degraded, dispatch steers work away from it, so a longer
        // streak requirement could starve before it re-confirms.
        lifecycle: LifecyclePolicy {
            dead_after_crippled: 1,
        },
        cycle_rate: None,
    };
    let mut server = Server::start(config, vec![TenantConfig::new("t")]).expect("server start");
    let client = server.client("t").expect("tenant");

    // Join a rotten shard: one of its two int slots faults on every
    // attempt, and a hair-trigger quarantine threshold makes each batch
    // rediscover that — reading as crippled snapshot after snapshot.
    let rotten = DeviceConfig {
        int_arrays: 2,
        float_arrays: 1,
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 8,
            quarantine_after: 1,
        },
        fault: Some(FaultConfig {
            broken_slots: 0b1,
            ..FaultConfig::uniform(5, 0)
        }),
        ..DeviceConfig::default()
    };
    let rotten_id = server.add_shard_with(rotten).expect("shard joins");
    assert_eq!(rotten_id, 1);

    let mut rng = SmallRng::seed_from_u64(21);
    let patience = Instant::now() + Duration::from_secs(30);
    loop {
        // Int-only waves, big enough that the healthy shard is busy and
        // the rotten shard keeps drawing fresh batches (idle shards with
        // fewer quarantined slots pull first, so a trickle would starve
        // it and never build the streak).
        let tickets: Vec<(Ticket, TaskValue)> = (0..96)
            .map(|_| {
                let task =
                    Task::bsw_local(seq(&mut rng, 12), seq(&mut rng, 16), Scoring::bwa_mem());
                let (want, _) = task.execute(4).expect("reference execution");
                (client.submit(task).expect("admitted"), want)
            })
            .collect();
        for (ticket, want) in tickets {
            let completed = ticket.wait().expect("survives the rotten shard");
            assert_eq!(completed.value, want);
        }
        let stats = server.stats();
        let rotten_state = stats
            .shards
            .iter()
            .find(|s| s.shard == rotten_id)
            .map(|s| s.state)
            .expect("rotten shard in stats");
        if rotten_state == ShardState::Dead {
            assert!(stats.lifecycle.died >= 1);
            assert!(stats.lifecycle.respawned >= 1, "replacement spawned");
            assert!(
                stats.shards.iter().any(|s| s.shard > rotten_id),
                "replacement in the table"
            );
            break;
        }
        assert!(
            Instant::now() < patience,
            "monitor never declared the rotten shard dead (state {rotten_state})"
        );
    }

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.failed, 0);
    assert!(stats.totals.drained());
}

/// Shards take work healthiest first. A joined shard whose first four
/// int slots fail every attempt spends a task's whole retry budget
/// there, yet it never reads degraded (a one-task batch quarantines 3 of
/// 16 slots). One request at a time may reach it before its first batch
/// shows the quarantine, and never after, even when the healthy shard
/// is still finishing its previous batch.
#[test]
fn trickle_avoids_a_shard_with_rotten_slots() {
    let config = ServeConfig {
        shards: 1,
        shard_config: DeviceConfig {
            workers: 1,
            ..DeviceConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, vec![TenantConfig::new("t")]).expect("server start");
    let rotten = DeviceConfig {
        workers: 1,
        retry: RetryPolicy {
            quarantine_after: 1,
            ..RetryPolicy::default()
        },
        fault: Some(FaultConfig {
            broken_slots: 0b1111,
            ..FaultConfig::uniform(5, 0)
        }),
        ..DeviceConfig::default()
    };
    let rotten_id = server.add_shard_with(rotten).expect("shard joins");
    let client = server.client("t").expect("tenant");

    let mut rng = SmallRng::seed_from_u64(22);
    let mut on_rotten = 0;
    for _ in 0..200 {
        let task = Task::bsw_local(seq(&mut rng, 12), seq(&mut rng, 16), Scoring::bwa_mem());
        let ran_there = match client.submit(task).expect("admitted").wait() {
            Ok(completed) => completed.shard == rotten_id,
            // Only the rotten shard injects faults.
            Err(ServeError::Failed(_)) => true,
            Err(other) => panic!("unexpected delivery: {other}"),
        };
        on_rotten += usize::from(ran_there);
    }
    assert!(
        on_rotten <= 1,
        "{on_rotten} of 200 requests ran on the rotten shard"
    );

    server.shutdown();
    assert!(server.stats().totals.drained());
}
