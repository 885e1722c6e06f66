//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's description and every metric by name, then one JSON
//! result line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match perfbench::Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&opts);
    for line in &outcome.notes {
        println!("{line}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
