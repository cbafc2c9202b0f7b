"""What a one-worker forward walk holds.

A walk makes its arrays with the network's free list and drops each
node image and image spectrum after its last reader, so only the output
images outlive it (``docs/algorithms.md`` "The one-worker forward
walk").  These tests poison every array the list hands out — the
replies of the tiled-contract, batched-tile and serving-twin models
must not move — look for anything a request leaves behind, and hold
the list steady from the second request on.
"""

import numpy as np
import pytest

from repro.core import (CustomOp, Network, register_custom_op,
                        unregister_custom_op)
from repro.core.edges import MaxWindowEdge
from repro.core.network import FreeList
from repro.graph import ComputationGraph
from repro.serving import ModelSpec, WarmModel

import test_batched_tiles as batched
import test_tiled_contract as contract

#: The ``serve_tiled_48`` benchmark workload's model, at its tile.
TWIN = ModelSpec("twin", "CTPCTPCT", conv_mode="fft", seed=0,
                 builder_kwargs=dict(width=[4, 4, 1], kernel=3, window=2,
                                     transfer="tanh"))
TWIN_TILE = (28, 33, 48)


def random_volumes(*shapes):
    rng = np.random.default_rng(len(shapes))
    return [rng.standard_normal(shape) for shape in shapes]


#: name -> (model spec, tile, conv-mode map, volumes)
CASES = {
    "contract": lambda: (contract.SPEC, contract.TILE, None,
                         random_volumes((17, 15, 21), (14, 14, 14))),
    "batched-fft": lambda: (batched.spec("fft"), batched.TILE, None,
                            list(batched.volumes().values())),
    "batched-direct": lambda: (batched.spec("direct"), batched.TILE, None,
                               list(batched.volumes().values())),
    "batched-mixed": lambda: (batched.spec("fft"), batched.TILE,
                              batched.mixed_modes(),
                              list(batched.volumes().values())),
    "twin": lambda: (TWIN, TWIN_TILE, None, random_volumes((48, 48, 48))),
}


def serve(spec, tile, modes, volumes):
    model = WarmModel(spec, tile, conv_modes=modes)
    try:
        return [model.run(volume) for volume in volumes]
    finally:
        model.close()


def referenced_buffers(network):
    """The free list's buffers something besides the list refers to."""
    free = {id(b) for b in network.buffers.free()}
    return [b for b in network.buffers._buffers if id(b) not in free]


def test_a_buffer_with_a_live_view_is_not_handed_out():
    buffers = FreeList()
    held = buffers.take((3, 4, 5))
    view = held[1:, ::2]
    del held
    again = buffers.take((3, 4, 5))
    assert not np.shares_memory(again, view)
    del view
    assert len(buffers.free()) == 1
    last = buffers.take((60,))  # the freed one, same bytes
    assert not np.shares_memory(last, again)
    assert len(buffers._buffers) == 2 and not buffers.free()


@pytest.mark.parametrize("case", list(CASES))
def test_poisoned_buffers_leave_the_replies(case, poison_walk_buffers):
    expected = serve(*CASES[case]())
    poisoned = poison_walk_buffers()
    replies = serve(*CASES[case]())
    assert poisoned
    for got, want in zip(replies, expected):
        assert got.tobytes() == want.tobytes()  # NaN payloads too


@pytest.mark.parametrize("spec,tile,volume,stack", [
    (TWIN, TWIN_TILE, TWIN_TILE, ()),
    (batched.spec("fft"), batched.TILE, (14, 14, 14), (8,)),
], ids=["lone-tile", "stack-of-8"])
def test_a_request_leaves_only_its_output(spec, tile, volume, stack,
                                          monkeypatch):
    model = WarmModel(spec, tile)
    try:
        network = model.network
        seen = batched.counting_forwards(monkeypatch, network)
        model.run(np.random.default_rng(0).standard_normal(volume))
        assert seen == [stack]
        for node in network.nodes.values():
            assert (node.fwd_image is not None) == node.is_output
        # Only the pinned kernel spectra stay memoized.
        assert len(network.cache) == len(network.conv_modes)
        assert all(edge._input is None for edge in network.edges.values()
                   if isinstance(edge, MaxWindowEdge))
        outputs = [n.fwd_image for n in network.output_nodes]
        assert [b.nbytes for b in referenced_buffers(network)] == [
            out.base.nbytes for out in outputs]
    finally:
        model.close()


def test_the_list_is_steady_from_the_second_request():
    model = WarmModel(TWIN, TWIN_TILE)
    try:
        held = []
        for volume in random_volumes(*[(48, 48, 48)] * 4):
            model.run(volume)
            held.append([(id(b), b.nbytes)
                         for b in model.network.buffers._buffers])
        assert held[1] == held[2] == held[3]
        assert model.network.buffers.nbytes <= 4 * 2 ** 20
    finally:
        model.close()


def test_a_custom_edge_keeps_the_image_it_read(poison_walk_buffers):
    register_custom_op(CustomOp(name="walk-double",
                                forward=lambda x, state: 2.0 * x,
                                backward=lambda g, x, y, state: 2.0 * g),
                       replace=True)
    try:
        g = ComputationGraph()
        for node in ("in", "a", "b", "c", "out"):
            g.add_node(node)
        g.add_edge("twice", "in", "a", "custom", op="walk-double")
        g.add_edge("t1", "a", "b", "transfer", transfer="tanh")
        g.add_edge("conv", "b", "c", "conv", kernel=2)
        g.add_edge("t2", "c", "out", "transfer", transfer="tanh")
        x = np.random.default_rng(5).standard_normal((8, 8, 8))
        with Network(g, input_shape=(8, 8, 8), conv_mode="fft",
                     seed=1) as net:
            poisoned = poison_walk_buffers()
            net.forward(x)
            edge = net.edges["twice"]
            assert poisoned and net.nodes["in"].fwd_image is None
            assert edge._input.tobytes() == x.tobytes()
            assert edge._output.tobytes() == (2.0 * x).tobytes()
    finally:
        unregister_custom_op("walk-double")
