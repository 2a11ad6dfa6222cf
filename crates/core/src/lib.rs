//! # calib-core
//!
//! Core model for *scheduling with calibrations*, the setting of
//! "Minimizing Total Weighted Flow Time with Calibrations" (SPAA 2017):
//! unit-length jobs with release times and weights run on machines that must
//! be calibrated before use; a calibration keeps a machine usable for `T`
//! consecutive time steps.
//!
//! This crate provides:
//!
//! * the instance model ([`Job`], [`Instance`], [`InstanceBuilder`]);
//! * schedules and exact integer cost accounting ([`Schedule`],
//!   [`Assignment`], [`Calibration`]);
//! * a trusted feasibility checker ([`check_schedule`]);
//! * the Observation 2.1 greedy assigner ([`assign_greedy`]), which is
//!   optimal given a fixed set of calibration times;
//! * queue-flow helpers used by all the online algorithms
//!   ([`flow_if_run_consecutively`], [`earliest_flow_crossing`]).
//!
//! ```
//! use calib_core::{assign_greedy, check_schedule, InstanceBuilder};
//!
//! // Three unit jobs, calibration length T = 4, one machine.
//! let inst = InstanceBuilder::new(4).unit_jobs([0, 1, 5]).build().unwrap();
//! // One calibration at time 0 covers slots 0..4; another at 5 covers 5..9.
//! let sched = assign_greedy(&inst, &[0, 5]).unwrap();
//! check_schedule(&inst, &sched).unwrap();
//! assert_eq!(sched.total_weighted_flow(&inst), 3); // every job runs at release
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod assign;
pub mod calibration;
pub mod checker;
pub mod cost;
pub mod instance;
pub mod job;
pub mod json;
pub mod obs;
pub mod schedule;
pub mod types;

pub use analysis::{render_gantt, schedule_stats, ScheduleStats};
pub use assign::{
    assign_greedy, assign_greedy_with_policy, assign_with_calibrations,
    assign_with_calibrations_counted, InsufficientCalibrations, PriorityPolicy, WaitingQueue,
};
pub use calibration::{coverage_by_machine, round_robin_calibrations, Calibration, Coverage};
pub use checker::{check_schedule, CheckError, Violation};
pub use cost::{earliest_flow_crossing, flow_crossing, flow_if_run_consecutively};
pub use instance::{Instance, InstanceBuilder, InstanceError};
pub use job::{normalize_releases, sort_jobs, Job};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use obs::{
    CounterSnapshot, Counters, CountingProbe, Event, NoopProbe, Probe, RecordingProbe, SpanTimer,
    TraceProbe,
};
pub use schedule::{Assignment, Schedule};
pub use types::{ge_ratio, lt_ratio, Cost, JobId, MachineId, Time, Weight};
