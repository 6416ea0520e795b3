//! `bench`: one workload, one process, one thread. See README.md.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mp2p_perfbench::cli::main(&args));
}
