//! Figure 11: PVM validation — measured speedup vs W per demand.
//! An optional argument sets the replications per point (default 10);
//! anything else exits 2 with a one-line usage.
use nds_bench::figures::validation_speedup_figure;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps = match args.as_slice() {
        [] => Some(10),
        [n] => n.parse().ok().filter(|&n: &u32| n > 0),
        _ => None,
    };
    let Some(reps) = reps else {
        eprintln!(
            "usage: fig11_validation_speedup [REPS]  (replications per point >= 1, default 10)"
        );
        std::process::exit(2);
    };
    print!("{}", validation_speedup_figure(reps).to_table(2).render());
}
