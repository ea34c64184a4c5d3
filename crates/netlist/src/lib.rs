//! # cfg-netlist — gate-level circuits in software
//!
//! The paper's generator produces VHDL that synthesis tools map onto an
//! FPGA. Lacking the vendor toolchain, this crate supplies the hardware
//! substrate in software:
//!
//! * [`ir`] — a gate-level netlist IR: wires ([`NetId`]), AND/OR/NOT/XOR
//!   gates, and D flip-flops with optional clock enables (the primitives
//!   of Figures 4–7 and 11 of the paper).
//! * [`builder`] — an ergonomic netlist construction API used by the
//!   generator crate.
//! * [`sim`] — a cycle-accurate two-phase simulator. Values are `u64`
//!   words, so 64 independent streams simulate in parallel for free.
//! * [`techmap`] — a 4-input-LUT technology mapper (the paper's target
//!   cell: "the elementary logic unit of our target FPGA consists of a
//!   four input look-up-table followed by a one bit register", §3.4) with
//!   inverter absorption and single-fanout cone packing.
//! * [`stats`] — gate/FF/LUT counts, fanout histograms, logic depth.
//! * [`timing`] — static timing analysis over the mapped netlist,
//!   parameterised by a [`timing::DelayModel`] (device models live in the
//!   `cfg-fpga` crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dot;
pub mod ir;
pub mod sim;
pub mod stats;
pub mod techmap;
pub mod timing;
pub mod transform;

pub use builder::NetlistBuilder;
pub use dot::{heat_color, to_dot};
pub use ir::{Net, NetId, Netlist, Op};
pub use sim::{SimError, Simulator};
pub use stats::NetlistStats;
pub use techmap::{MappedNetlist, MappedStats};
pub use timing::{DelayModel, TimingReport};
pub use transform::replicate_high_fanout_regs;
