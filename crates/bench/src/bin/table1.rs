//! Table 1 — evaluated platforms (architectural facts + model constants).
fn main() {
    println!("# Table 1: Evaluated platforms");
    print!("{}", dibella_netmodel::table1());
    println!();
    println!("# Calibration constants (model-side; see crates/netmodel)");
    println!("platform          core_perf  inj_bw(MB/s)  coll_alpha(us)  per_rank(us)  first_a2av(x)");
    for p in dibella_netmodel::Platform::all() {
        println!(
            "{:<17} {:>9} {:>13} {:>15} {:>13} {:>15}",
            p.name, p.core_perf, p.inj_bw_mb_s, p.coll_alpha_us, p.coll_per_rank_us, p.first_alltoallv_factor
        );
    }
}
