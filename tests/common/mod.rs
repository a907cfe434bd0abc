//! Code shared by several test binaries; each binary uses only part of it.
#![allow(dead_code)]

pub mod fuzz_programs;
pub mod oracle;
pub mod stepper;
