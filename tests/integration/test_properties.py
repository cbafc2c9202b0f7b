"""Network-level property-based tests (hypothesis).

Mathematical invariants that must hold for *any* network the builder
can produce — linearity, translation covariance, mode/engine parity —
checked over randomly drawn architectures and data.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Network, SGD
from repro.graph import build_layered_network
from repro.tensor import correlate_valid


def linear_net(spec, width, kernel, seed):
    graph = build_layered_network(spec, width=width, kernel=kernel,
                                  transfer="linear")
    return Network(graph, input_shape=(10, 10, 10), conv_mode="direct",
                   seed=seed)


@given(width=st.integers(1, 3), seed=st.integers(0, 100),
       scale=st.floats(-3, 3))
@settings(max_examples=15)
def test_linear_network_is_homogeneous(width, seed, scale):
    """With linear transfers and zero biases the whole network is a
    linear operator: f(a*x) = a*f(x)."""
    net = linear_net("CTC", width, 2, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((10, 10, 10))
    base = net.forward(x)
    scaled = net.forward(scale * x)
    for k in base:
        np.testing.assert_allclose(scaled[k], scale * base[k], atol=1e-9)


@given(width=st.integers(1, 3), seed=st.integers(0, 100))
@settings(max_examples=15)
def test_linear_network_is_additive(width, seed):
    """f(x + y) = f(x) + f(y) for linear nets."""
    net = linear_net("CTC", width, 2, seed)
    rng = np.random.default_rng(seed + 2)
    x = rng.standard_normal((10, 10, 10))
    y = rng.standard_normal((10, 10, 10))
    fx = net.forward(x)
    fy = net.forward(y)
    fxy = net.forward(x + y)
    for k in fx:
        np.testing.assert_allclose(fxy[k], fx[k] + fy[k], atol=1e-9)


@given(seed=st.integers(0, 200), shift=st.integers(1, 3))
@settings(max_examples=15)
def test_translation_covariance(seed, shift):
    """Valid ConvNets are translation covariant: shifting the input
    window shifts the output window (checked by evaluating a larger
    input and comparing interior crops)."""
    graph = build_layered_network("CTC", width=2, kernel=2,
                                  transfer="tanh")
    big_net = Network(graph, input_shape=(12, 12, 12), conv_mode="direct",
                      seed=seed)
    rng = np.random.default_rng(seed + 3)
    big = rng.standard_normal((12, 12, 12))
    out_big = big_net.forward(big)

    graph2 = build_layered_network("CTC", width=2, kernel=2,
                                   transfer="tanh")
    small_net = Network(graph2, input_shape=(12 - shift, 12, 12),
                        conv_mode="direct", seed=seed)
    from repro.core import copy_parameters
    copy_parameters(big_net, small_net)
    out_small = small_net.forward(big[shift:])
    for k in out_big:
        np.testing.assert_allclose(out_small[k], out_big[k][shift:],
                                   atol=1e-9)


@given(seed=st.integers(0, 500),
       spec=st.sampled_from(["CTC", "CTMC", "CMC"]),
       transfer=st.sampled_from(["relu", "tanh", "logistic"]))
@settings(max_examples=10)
def test_fft_direct_parity_random_architectures(seed, spec, transfer):
    """FFT and direct modes agree for random (spec, transfer, seed)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 12, 12))
    outs = []
    for mode in ("direct", "fft"):
        graph = build_layered_network(spec, width=2, kernel=2, window=2,
                                      transfer=transfer)
        net = Network(graph, input_shape=(12, 12, 12), conv_mode=mode,
                      seed=seed)
        outs.append(net.forward(x))
    for k in outs[0]:
        np.testing.assert_allclose(outs[0][k], outs[1][k], atol=1e-9)


@given(seed=st.integers(0, 500))
@settings(max_examples=10)
def test_single_conv_network_equals_raw_convolution(seed):
    """A 1-edge conv network is exactly correlate_valid with its
    kernel."""
    graph = build_layered_network("C", width=1, kernel=3)
    net = Network(graph, input_shape=(9, 9, 9), conv_mode="direct",
                  seed=seed)
    rng = np.random.default_rng(seed + 9)
    x = rng.standard_normal((9, 9, 9))
    out = net.forward(x)
    kernel = list(net.kernels().values())[0]
    expected = correlate_valid(x, kernel)
    np.testing.assert_allclose(list(out.values())[0], expected, atol=1e-12)


@given(seed=st.integers(0, 300), rounds=st.integers(1, 3))
@settings(max_examples=8)
def test_training_determinism_property(seed, rounds):
    """Same seed + same data => identical training trajectories."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((10, 10, 10))

    def run():
        graph = build_layered_network("CTC", width=2, kernel=2,
                                      transfer="tanh")
        net = Network(graph, input_shape=(10, 10, 10), seed=seed,
                      optimizer=SGD(learning_rate=0.01))
        targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
        return [net.train_step(x, targets) for _ in range(rounds)]

    np.testing.assert_array_equal(run(), run())


@given(seed=st.integers(0, 300))
@settings(max_examples=8)
def test_loss_gradient_direction_property(seed):
    """One small SGD step on a fixed sample never increases the loss
    by more than numerical noise (descent property for small lr)."""
    rng = np.random.default_rng(seed)
    graph = build_layered_network("CTC", width=2, kernel=2,
                                  transfer="tanh")
    net = Network(graph, input_shape=(8, 8, 8), seed=seed,
                  optimizer=SGD(learning_rate=1e-5))
    x = rng.standard_normal((8, 8, 8))
    targets = {n.name: rng.standard_normal(n.shape)
               for n in net.output_nodes}
    first = net.train_step(x, targets)
    net.synchronize()
    second = net.train_step(x, targets)
    assert second <= first * (1 + 1e-6)
