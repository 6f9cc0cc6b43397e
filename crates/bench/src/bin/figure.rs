//! Runs any registered scenario by name:
//!
//! ```text
//! cargo run --release -p xcc-bench --bin figure -- fig8
//! cargo run --release -p xcc-bench --bin figure -- --list
//! ```
//!
//! Unknown names exit non-zero with the registry listing and, when the name
//! looks like a typo, a "did you mean" hint.

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--list") | Some("-l") => {
            xcc_bench::print_scenario_list(std::io::stdout())?;
        }
        Some(name) => {
            let Some(entry) = xcc_framework::registry::get(name) else {
                eprintln!("unknown scenario `{name}`");
                if let Some(candidate) = xcc_framework::registry::suggest(name) {
                    eprintln!("did you mean `{candidate}`?");
                }
                eprintln!("registered scenarios:");
                xcc_bench::print_scenario_list(std::io::stderr())?;
                std::process::exit(2);
            };
            xcc_bench::run_and_print(entry);
        }
    }
    Ok(())
}
