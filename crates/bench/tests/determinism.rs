//! The engine's headline guarantee: a sweep's rendered tables and
//! aggregate metrics JSON are byte-identical whatever the worker count.

use flexprot_bench::{f1_guard_density, t2_size_overhead, t3_t9_attack_matrix, Params};
use flexprot_exec::Engine;

const QUICK: Params = Params { quick: true };

fn sweep(engine: &Engine) -> String {
    let mut out = String::new();
    out.push_str(&t2_size_overhead(&QUICK, engine).to_string());
    out.push_str(&f1_guard_density(&QUICK, engine).to_string());
    for table in t3_t9_attack_matrix(&QUICK, engine) {
        out.push_str(&table.to_string());
    }
    out
}

#[test]
fn tables_and_metrics_are_identical_across_worker_counts() {
    let serial = Engine::new(1);
    let parallel = Engine::new(4);
    let serial_tables = sweep(&serial);
    let parallel_tables = sweep(&parallel);
    assert_eq!(
        serial_tables, parallel_tables,
        "rendered tables must not depend on the worker count"
    );
    assert_eq!(
        serial.metrics().to_json(),
        parallel.metrics().to_json(),
        "aggregate metrics JSON must not depend on the worker count"
    );
}

#[test]
fn csv_rendering_is_identical_across_worker_counts() {
    let serial = Engine::new(1);
    let parallel = Engine::new(3);
    assert_eq!(
        t2_size_overhead(&QUICK, &serial).to_csv(),
        t2_size_overhead(&QUICK, &parallel).to_csv()
    );
    assert_eq!(
        f1_guard_density(&QUICK, &serial).to_csv(),
        f1_guard_density(&QUICK, &parallel).to_csv()
    );
}

#[test]
fn artifact_cache_is_exercised_and_scheduling_independent() {
    let serial = Engine::new(1);
    let parallel = Engine::new(4);
    sweep(&serial);
    sweep(&parallel);
    let s = serial.cache().stats();
    let p = parallel.cache().stats();
    assert!(s.hits > 0, "the sweep must share artifacts: {s:?}");
    assert_eq!(
        s, p,
        "hit/miss accounting must not depend on the worker count"
    );
    assert_eq!(
        serial.metrics().counter("exec_cache_hits"),
        s.hits,
        "engine metrics must surface the cache counters"
    );
}
