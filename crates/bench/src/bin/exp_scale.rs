//! Scaling: join response time vs |D| (the dimension the paper pushes to
//! 73,057 queries), comparing the join driver on one thread (`sim_join`,
//! the paper's sequential accounting) against the same driver on every
//! available core. The matches must be identical, order included.

use uqsj::prelude::*;
use uqsj::simjoin::JoinIndex;
use uqsj::workload::DatasetConfig;
use uqsj_bench::{scale, scaled, secs};

fn main() {
    let s = scale();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!("Join scaling — tau = 1, alpha = 0.8, |U| fixed, {threads} threads\n");
    println!(
        "{:>7} {:>7} | {:>11} {:>11} | {:>9} {:>9}",
        "|D|", "|U|", "1 thread(s)", "parallel(s)", "results", "agree"
    );
    for d_target in [250usize, 500, 1000, 2000] {
        let d_target = scaled(d_target, s, 100);
        let dataset = uqsj::workload::webq_like(&DatasetConfig {
            questions: scaled(150, s, 50),
            distractors: d_target,
            seed: 53,
            ..Default::default()
        });
        let params = JoinParams::simj(1, 0.8);
        let started = std::time::Instant::now();
        let (sequential, _) =
            sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params);
        let sequential_t = started.elapsed();
        let started = std::time::Instant::now();
        let (parallel, _) = JoinIndex::build(&dataset.d_graphs).join(
            &dataset.table,
            &dataset.u_graphs,
            params,
            threads,
        );
        let parallel_t = started.elapsed();
        let agree = sequential == parallel;
        println!(
            "{:>7} {:>7} | {:>11} {:>11} | {:>9} {:>9}",
            dataset.d_len(),
            dataset.u_len(),
            secs(sequential_t),
            secs(parallel_t),
            sequential.len(),
            agree
        );
        assert!(agree, "the parallel join diverged from the sequential one");
    }
}
