//! Element-wise activation functions.

use super::{Layer, Mode, Param};
use crate::tensor::Tensor;
use crate::{backend, gelu, workspace};

/// The supported activation nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.2 for negative inputs (GAN default in the paper).
    LeakyRelu,
    /// Gaussian error linear unit (tanh approximation), the paper's choice
    /// for autoencoders and diffusion backbones (§V-A).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

const LEAKY_SLOPE: f32 = 0.2;

impl ActivationKind {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    LEAKY_SLOPE * x
                }
            }
            ActivationKind::Gelu => gelu::gelu(x).0,
            ActivationKind::Tanh => gelu::tanh(x),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative of the activation at `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                }
            }
            ActivationKind::Gelu => {
                gelu::gelu_derivative_from_tanh(x, gelu::tanh(gelu::gelu_inner(x)))
            }
            ActivationKind::Tanh => {
                let t = gelu::tanh(x);
                1.0 - t * t
            }
            ActivationKind::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }
}

/// Stateless element-wise activation layer.
///
/// GELU runs through [`backend::Backend::gelu`]. In `Train` mode every
/// kind keeps what its backward pass needs, and no kind recomputes a
/// `tanh` there: GELU keeps its input and its `tanh` values, Tanh keeps
/// its output, the others keep their input.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    cached_input: Option<Tensor>,
    cached_tanh: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cached_input: None, cached_tanh: None }
    }

    /// The nonlinearity this layer applies.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

const NO_FORWARD: &str = "Activation::backward called without a cached forward pass";

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let kind = self.kind;
        match kind {
            ActivationKind::Gelu => {
                let mut out = workspace::take(input.rows(), input.cols());
                let tanh = if mode == Mode::Train {
                    workspace::cache_assign(&mut self.cached_input, input);
                    let t =
                        workspace::cache_slot(&mut self.cached_tanh, input.rows(), input.cols());
                    Some(t.as_mut_slice())
                } else {
                    None
                };
                backend::timed(backend::GELU_COUNTERS, || {
                    backend::get().gelu(input.as_slice(), out.as_mut_slice(), tanh)
                });
                out
            }
            ActivationKind::Tanh => {
                let out = input.map(gelu::tanh);
                if mode == Mode::Train {
                    workspace::cache_assign(&mut self.cached_tanh, &out);
                }
                out
            }
            _ => {
                if mode == Mode::Train {
                    workspace::cache_assign(&mut self.cached_input, input);
                }
                input.map(|v| kind.apply(v))
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let kind = self.kind;
        match kind {
            ActivationKind::Gelu => {
                let (Some(x), Some(t)) = (&self.cached_input, &self.cached_tanh) else {
                    panic!("{NO_FORWARD}")
                };
                assert_eq!(grad_output.shape(), x.shape(), "Activation::backward shape mismatch");
                let mut dx = workspace::take(x.rows(), x.cols());
                backend::timed(backend::GELU_COUNTERS, || {
                    backend::get().gelu_backward(
                        x.as_slice(),
                        t.as_slice(),
                        grad_output.as_slice(),
                        dx.as_mut_slice(),
                    )
                });
                dx
            }
            ActivationKind::Tanh => {
                let y = self.cached_tanh.as_ref().expect(NO_FORWARD);
                grad_output.zip_with(y, |g, t| g * (1.0 - t * t))
            }
            _ => {
                let input = self.cached_input.as_ref().expect(NO_FORWARD);
                grad_output.zip_with(input, |g, x| g * kind.derivative(x))
            }
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_clamps_negatives() {
        let mut a = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        assert_eq!(a.forward(&x, Mode::Infer).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU(x) -> x for large x, GELU(-x) -> 0.
        let g = ActivationKind::Gelu;
        assert!(g.apply(0.0).abs() < 1e-7);
        assert!((g.apply(10.0) - 10.0).abs() < 1e-3);
        assert!(g.apply(-10.0).abs() < 1e-3);
        // Reference value from the tanh approximation: GELU(1) ~ 0.8412.
        assert!((g.apply(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        let s = ActivationKind::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-7);
        assert!(s.apply(50.0) <= 1.0 && s.apply(-50.0) >= 0.0);
    }

    #[test]
    fn all_kinds_pass_gradcheck() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in [
            ActivationKind::LeakyRelu,
            ActivationKind::Gelu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ] {
            let mut layer = Activation::new(kind);
            // Keep inputs away from ReLU kinks for stable finite differences.
            let x = crate::init::randn(4, 6, &mut rng).map(|v| v * 0.9 + 0.05);
            gradcheck::check_input_grad(&mut layer, &x, 2e-2);
        }
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let k = ActivationKind::LeakyRelu;
        assert_eq!(k.apply(-10.0), -2.0);
        assert_eq!(k.derivative(-1.0), 0.2);
        assert_eq!(k.derivative(1.0), 1.0);
    }
}
