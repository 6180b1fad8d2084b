//! Thin wrapper over [`flexprot_cli::fpsweep`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fpsweep(&args) {
        Ok(report) => flexprot_cli::print_report("fpsweep", &report),
        Err(err) => {
            eprintln!("fpsweep: {err}");
            std::process::exit(2);
        }
    }
}
