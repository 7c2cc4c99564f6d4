//! # tscache-rtos — AUTOSAR-style scheduling and TSCache seed management
//!
//! The OS half of the TSCache proposal (paper §5, Fig. 3): applications
//! are software components (SWC) made of periodic runnables; the OS
//! groups runnables into tasks, executes a static cyclic schedule, and
//! manages placement seeds — one seed per SWC, saved/restored on
//! context switches, re-drawn (with a cache flush) once per
//! hyperperiod.
//!
//! ```
//! use tscache_core::setup::SetupKind;
//! use tscache_rtos::model::Application;
//! use tscache_rtos::os::{OsConfig, TscacheOs};
//!
//! let app = Application::figure3_example();
//! let mut os = TscacheOs::try_new(app, SetupKind::TsCache, OsConfig::default())
//!     .expect("valid OS config");
//! let report = os.run(5);
//! assert!(report.overhead_fraction() < 0.05);
//! ```

pub mod detector;
pub mod model;
pub mod os;
pub mod schedule;

pub use detector::{
    DetectionEvent, DetectionKind, DetectorConfig, DetectorReport, SlidingWindowDetector,
};
pub use model::{Application, Runnable, SwcId};
pub use os::{CampaignReport, OsConfig, SeedPolicy, TscacheOs};
pub use schedule::{JobInstance, Schedule};
