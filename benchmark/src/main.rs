//! Entry point: see `ft_benchmark::cli` for the modes.

fn main() {
    std::process::exit(ft_benchmark::cli::main(std::env::args().skip(1).collect()));
}
