//! Dead-surface fixture: the benchmark package is not parsed, but a name it uses
//! stays alive.

fn main() {
    println!("{}", bench_probe());
}
