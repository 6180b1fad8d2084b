//! Thin wrapper over [`flexprot_cli::fpcc`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fpcc(&args) {
        Ok(message) => flexprot_cli::print_report("fpcc", &format!("{message}\n")),
        Err(err) => {
            eprintln!("fpcc: {err}");
            std::process::exit(2);
        }
    }
}
