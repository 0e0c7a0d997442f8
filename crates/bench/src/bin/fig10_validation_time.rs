//! Figure 10: PVM validation — measured (simulated cluster) and
//! analytic max task execution time vs W, U = 3%, demands 1..16 min.
//! An optional argument sets the replications per point (default 10);
//! anything else exits 2 with a one-line usage.
use nds_bench::figures::validation_time_figure;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps = match args.as_slice() {
        [] => Some(10),
        [n] => n.parse().ok().filter(|&n: &u32| n > 0),
        _ => None,
    };
    let Some(reps) = reps else {
        eprintln!("usage: fig10_validation_time [REPS]  (replications per point >= 1, default 10)");
        std::process::exit(2);
    };
    print!("{}", validation_time_figure(reps).to_table(1).render());
}
