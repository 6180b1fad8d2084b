//! Thin wrapper over [`flexprot_cli::fpprotect`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fpprotect(&args) {
        Ok(message) => flexprot_cli::print_report("fpprotect", &format!("{message}\n")),
        Err(err) => {
            eprintln!("fpprotect: {err}");
            std::process::exit(2);
        }
    }
}
