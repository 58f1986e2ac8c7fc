//! Tenant-fairness under contention: a saturating high-priority tenant
//! must never starve a low-priority one, at every worker count.
//!
//! The deficit-round-robin scheduler's guarantee is *weighted* shares,
//! not strict priority — so a `Batch` tenant's small job list drains
//! while an `Interactive` hog still has hundreds of requests queued.

use std::time::Duration;

use gendp::kernels::Scoring;
use gendp::runtime::{DeviceConfig, Task};
use gendp::seq::DnaSeq;
use gendp::serve::{Priority, ServeConfig, Server, TenantConfig, Ticket};
use rand::{rngs::SmallRng, SeedableRng};

const HOG_TASKS: usize = 600;
const TURTLE_TASKS: usize = 15;

fn fairness_round(workers: usize) {
    let config = ServeConfig {
        shards: 1,
        shard_config: DeviceConfig {
            int_arrays: 4,
            float_arrays: 1,
            workers,
            ..DeviceConfig::default()
        },
        batch_max: 16,
        quantum_cells: 512,
        ..ServeConfig::default()
    };
    let tenants = vec![
        TenantConfig::new("hog")
            .priority(Priority::Interactive)
            .weight(8)
            .quotas(HOG_TASKS, HOG_TASKS),
        TenantConfig::new("turtle")
            .priority(Priority::Batch)
            .weight(1),
    ];
    let mut server = Server::start(config, tenants).expect("server start");
    let hog = server.client("hog").expect("tenant");
    let turtle = server.client("turtle").expect("tenant");
    let mut rng = SmallRng::seed_from_u64(workers as u64);

    // The hog floods its entire job list first, so its queue is deep
    // before the turtle's first request ever arrives.
    let hog_tickets: Vec<Ticket> = (0..HOG_TASKS)
        .map(|_| {
            hog.submit(Task::bsw_local(
                DnaSeq::random(24, &mut rng),
                DnaSeq::random(32, &mut rng),
                Scoring::bwa_mem(),
            ))
            .expect("hog admitted")
        })
        .collect();
    let turtle_tickets: Vec<Ticket> = (0..TURTLE_TASKS)
        .map(|_| {
            turtle
                .submit(Task::bsw_local(
                    DnaSeq::random(16, &mut rng),
                    DnaSeq::random(16, &mut rng),
                    Scoring::bwa_mem(),
                ))
                .expect("turtle admitted")
        })
        .collect();

    // The turtle drains on a bounded clock even though the hog arrived
    // first with 40x the work and a 128x effective weight.
    for (i, ticket) in turtle_tickets.into_iter().enumerate() {
        ticket
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("workers={workers}: turtle task {i} starved"))
            .unwrap_or_else(|e| panic!("workers={workers}: turtle task {i} failed: {e}"));
    }
    let mid = server.stats();
    let hog_done = mid
        .tenants
        .iter()
        .find(|t| t.name == "hog")
        .expect("hog stats")
        .counters
        .completed;
    assert!(
        hog_done < HOG_TASKS as u64,
        "workers={workers}: turtle only finished after the whole hog \
         backlog ({hog_done}/{HOG_TASKS}) — that is starvation"
    );

    for ticket in hog_tickets {
        ticket.wait().expect("hog task delivered");
    }
    server.shutdown();
    let stats = server.stats();
    assert!(stats.totals.drained(), "workers={workers}: lost tasks");
    assert_eq!(stats.totals.completed, (HOG_TASKS + TURTLE_TASKS) as u64);
}

#[test]
fn batch_tenant_is_not_starved_with_one_worker() {
    fairness_round(1);
}

#[test]
fn batch_tenant_is_not_starved_with_two_workers() {
    fairness_round(2);
}

#[test]
fn batch_tenant_is_not_starved_with_eight_workers() {
    fairness_round(8);
}
