//! A from-scratch implementation of the secp256k1 elliptic curve:
//! base-field and scalar arithmetic, Jacobian point operations, and the
//! windowed scalar multiplications ECDSA needs.

pub mod field;
pub mod point;
pub mod scalar;

pub use field::Fe;
pub(crate) use point::batch_normalize;
pub use point::{
    msm_u128, mul_double, mul_double_with_table, mul_generator, mul_point, Affine, AffineTable,
    Jacobian,
};
pub use scalar::Scalar;
