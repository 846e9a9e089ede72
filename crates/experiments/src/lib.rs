//! # ugpc-experiments — the reproduction harness
//!
//! One module per paper table/figure, each with a `run` producing
//! serializable data and a `render` producing the text table. The `repro`
//! binary drives them (`repro all`, `repro fig3 --scale 2`, ...).

pub mod ablation;
pub mod control;
pub mod driver;
pub mod ext_lu;
pub mod ext_mixed;
pub mod ext_models;
pub mod fig1;
pub mod fig34;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod format;
pub mod memo;
pub mod placements;
pub mod power_profile;
pub mod profile;
pub mod table1;
pub mod table2;
pub mod unbalanced;

pub use driver::{jobs, par_map, set_jobs};
pub use unbalanced::{run_ladder, Ladder, LadderRow};
