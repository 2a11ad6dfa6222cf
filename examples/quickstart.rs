//! Quickstart: schedule a small job set online, compare against the exact
//! offline optimum, and inspect the schedule.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use calibration_scheduling::prelude::*;

fn main() {
    // A machine whose calibration lasts T = 5 steps; calibrating costs G = 8.
    // Unit jobs arrive in two bursts.
    let instance = InstanceBuilder::new(5)
        .unit_jobs([0, 1, 2, 20, 21, 22, 23])
        .build()
        .expect("valid instance");
    let g: Cost = 8;

    println!(
        "instance: {} jobs, T = {}, G = {g}",
        instance.n(),
        instance.cal_len()
    );

    // --- Online: the 3-competitive Algorithm 1 -----------------------------
    let online = run_online(&instance, g, &mut Alg1::new());
    println!("\nAlg1 (online, 3-competitive):");
    println!("  calibrations : {}", online.calibrations);
    println!("  flow         : {}", online.flow);
    println!("  total cost   : {}", online.cost);
    for interval in &online.intervals {
        println!("  calibrated at t={} ({})", interval.start, interval.reason);
    }

    // --- Offline: exact optimum via the O(K n^3) dynamic program -----------
    let opt = opt_online_cost(&instance, g).expect("single machine, distinct releases");
    println!("\nexact offline OPT:");
    println!("  calibrations : {}", opt.calibrations);
    println!("  flow         : {}", opt.flow);
    println!("  total cost   : {}", opt.cost);

    let ratio = online.cost as f64 / opt.cost as f64;
    println!("\ncompetitive ratio on this instance: {ratio:.3} (theorem bound: 3)");
    assert!(online.cost <= 3 * opt.cost);

    // --- Inspect and verify the online schedule ----------------------------
    println!("\nonline schedule:");
    for a in online.schedule.sorted_assignments() {
        let job = instance.job(a.job).unwrap();
        println!(
            "  t={:>3}  {}  (released {}, flow {})",
            a.start,
            a.job,
            job.release,
            a.start + 1 - job.release
        );
    }
    check_schedule(&instance, &online.schedule).expect("engine output is always feasible");
    println!("\nschedule verified by the independent checker ✓");

    println!("\nGantt ('#' job, '.' calibrated idle, '^' release):");
    print!(
        "{}",
        calibration_scheduling::core::render_gantt(&instance, &online.schedule)
    );
}
