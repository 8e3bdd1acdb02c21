//! One module per rule. A `//~ lint …` comment after code names the
//! errors the lint pass must report on that line; every other line,
//! including each waived twin under a live `#[expect]`, must stay
//! silent. The attribute below is the one the cast-checked library
//! crates carry.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod exempt;
pub mod expect;
pub mod panic;
pub mod reasonless_waiver;
pub mod stale_waiver;
pub mod swallowed_result;
pub mod swallowed_result_waived;
pub mod unchecked_cast;
pub mod unchecked_cast_waived;
pub mod unpooled_thread;
pub mod unsafe_code;
pub mod unwrap;
