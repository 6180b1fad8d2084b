//! Thin wrapper over [`flexprot_cli::fpmatrix`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fpmatrix(&args) {
        Ok(summary) => {
            flexprot_cli::print_report("fpmatrix", &summary.report);
            std::process::exit(summary.exit_code);
        }
        Err(err) => {
            eprintln!("fpmatrix: {err}");
            std::process::exit(2);
        }
    }
}
