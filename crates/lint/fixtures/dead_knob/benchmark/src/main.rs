//! K1 fixture: the benchmark package is not linted, but a name it uses is
//! a caller.

fn main() {
    println!("{}", bench_probe());
}
