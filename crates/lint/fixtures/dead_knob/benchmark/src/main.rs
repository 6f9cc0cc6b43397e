//! K1 fixture: the benchmark package is not linted, but a name it uses
//! stays alive.

fn main() {
    println!("{}", bench_probe());
}
