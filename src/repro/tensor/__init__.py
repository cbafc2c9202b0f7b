"""Tensor-operation substrate: direct & FFT convolution, the window
maximum (max-pooling and max-filtering are one kernel), transfer
functions, FFT memoization."""

from repro.tensor.conv_direct import (
    conv_backward_input,
    conv_kernel_gradient,
    convolve_full,
    convolve_valid,
    correlate_full,
    correlate_valid,
    dilate_kernel,
    flip3,
)
from repro.tensor.conv_fft import (
    FftConvPlan,
    fft_conv_backward_input,
    fft_conv_kernel_gradient,
    fft_convolve_full,
    fft_correlate_valid,
)
from repro.tensor.fft_cache import CacheStats, TransformCache
from repro.tensor.filtering import (
    max_filter_1d_heap,
    max_filter_backward,
    max_filter_forward,
    max_filter_separable,
    max_pool_backward,
    max_pool_forward,
)
from repro.tensor.transfer import (
    LINEAR,
    LOGISTIC,
    RELU,
    TANH,
    TRANSFER_FUNCTIONS,
    TransferFunction,
    get_transfer,
)

__all__ = [
    "conv_backward_input",
    "conv_kernel_gradient",
    "convolve_full",
    "convolve_valid",
    "correlate_full",
    "correlate_valid",
    "dilate_kernel",
    "flip3",
    "FftConvPlan",
    "fft_conv_backward_input",
    "fft_conv_kernel_gradient",
    "fft_convolve_full",
    "fft_correlate_valid",
    "CacheStats",
    "TransformCache",
    "max_filter_1d_heap",
    "max_filter_backward",
    "max_filter_forward",
    "max_filter_separable",
    "max_pool_backward",
    "max_pool_forward",
    "LINEAR",
    "LOGISTIC",
    "RELU",
    "TANH",
    "TRANSFER_FUNCTIONS",
    "TransferFunction",
    "get_transfer",
]
