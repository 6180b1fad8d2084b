//! Thin wrapper over [`flexprot_cli::fpasm`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fpasm(&args) {
        Ok(message) => flexprot_cli::print_report("fpasm", &format!("{message}\n")),
        Err(err) => {
            eprintln!("fpasm: {err}");
            std::process::exit(2);
        }
    }
}
