//! The bench runners' parallel fan-out must be a pure wall-clock
//! optimization: results come back in input order, identical to the
//! sequential map.

use blu_bench::runners::fan_out;

#[test]
fn fan_out_preserves_input_order() {
    let out = fan_out((0..257u32).collect(), |x| x.wrapping_mul(31) ^ 7);
    let want: Vec<u32> = (0..257u32).map(|x| x.wrapping_mul(31) ^ 7).collect();
    assert_eq!(out, want);
}
