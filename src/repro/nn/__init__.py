"""repro.nn — a from-scratch NumPy deep-learning framework.

Substrate for the paper's attack network: the original used TensorFlow
on a GPU, which is unavailable here, so this package provides the
layers, losses and optimisers the architecture of Fig. 4 requires,
each with hand-derived, gradient-checked backward passes.
"""

from .conv_utils import (
    col2im,
    conv_output_size,
    im2col,
    same_padding,
)
from .gradcheck import (
    check_callable_gradients,
    check_loss_gradients,
    check_module_gradients,
    numerical_gradient,
)
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    LeakyReLU,
    Sequential,
    he_normal,
)
from .losses import (
    softmax_probabilities,
    softmax_regression_loss,
    two_class_loss,
    two_class_probabilities,
)
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer, StepDecay
from .regularization import Dropout, apply_weight_decay, clip_gradient_norm
from .residual import ResidualBlock

__all__ = [
    "Adam",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAvgPool",
    "LeakyReLU",
    "Module",
    "Optimizer",
    "Parameter",
    "ResidualBlock",
    "SGD",
    "Sequential",
    "StepDecay",
    "apply_weight_decay",
    "check_callable_gradients",
    "check_loss_gradients",
    "clip_gradient_norm",
    "check_module_gradients",
    "col2im",
    "conv_output_size",
    "he_normal",
    "im2col",
    "numerical_gradient",
    "same_padding",
    "softmax_probabilities",
    "softmax_regression_loss",
    "two_class_loss",
    "two_class_probabilities",
]
