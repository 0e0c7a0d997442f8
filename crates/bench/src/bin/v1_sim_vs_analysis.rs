//! V1: rerun the paper's §2.2 validation — the discrete-time simulator
//! against the analysis, batch-means CIs. Pass `--paper` for the full
//! 20x1000-sample configuration (slow); default is the quick profile.
//! Any other argument exits 2 with a one-line usage.
use nds_bench::validation::{sim_vs_analysis, sim_vs_analysis_table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a != "--paper") {
        eprintln!("usage: v1_sim_vs_analysis [--paper]");
        std::process::exit(2);
    }
    let quick = args.is_empty();
    let rows = sim_vs_analysis(quick, 2024);
    print!("{}", sim_vs_analysis_table(&rows).render());
    let agreeing = rows.iter().filter(|r| r.outcome.agrees()).count();
    println!("\n{agreeing}/{} points agree with the analysis", rows.len());
}
