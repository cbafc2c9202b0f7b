"""Per-layer measurements of the traced run, taken from outside.

Three probes, the same for every workload, each calling public
functions of one layer at the shapes that workload gives them:

* :func:`kernel_probes`: the tensor kernels, ``sync``, ``scheduler``,
  ``memory.pools`` and ``observability`` primitives, at the workload's
  *hot* shapes (the conv layer of its graph with the most FLOPs per
  pass by ``direct_pass_cost``, its largest max-filter layer);
* :func:`network_probe`: a side ``Network`` over the workload's graph,
  built, stepped and synchronized at one and at two engine workers;
* :func:`serving_probe`: a side registry and server over the
  workload's model, planned, warmed, run and loaded with one and two
  clients.

A train workload's ``serving.*`` rows therefore say what serving the
network it trains would cost, and a serve workload's
``core.network.*`` rows what training the twin it serves would cost;
README.md says which rows each workload's end-to-end numbers depend on.
"""

import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from repro.graph import build_task_graph, forward_priorities
from repro.memory import PoolAllocator
from repro.observability import MetricsRegistry, Tracer
from repro.scheduler import SerialEngine, TaskEngine
from repro.serving import plan_volume
from repro.sync import ConcurrentSum, HeapOfLists
from repro.tensor import (FftConvPlan, TransformCache, conv_backward_input,
                          conv_kernel_gradient, correlate_valid,
                          fft_conv_backward_input, fft_conv_kernel_gradient,
                          fft_correlate_valid, get_transfer,
                          max_filter_backward, max_filter_forward)
from repro.tensor.conv_direct import direct_pass_cost
from repro.tensor.fourier import forward_transform, inverse_transform

import workloads as W

#: No-op tasks per scheduler timing.
TASKS = 200


def median_seconds(fn, repeats, inner=1):
    """Median over *repeats* timings of ``fn()`` called *inner* times,
    per call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def shaped_graph(wl, tile):
    graph = W.build_graph(wl)
    graph.propagate_shapes(tile)
    return graph


def hot_shapes(wl):
    """An edge of the graph's most expensive conv layer (most FLOPs per
    pass over all its edges, by ``direct_pass_cost``) and its largest
    filter edge, with the node shapes around them."""
    graph = shaped_graph(wl, W.tile_plan(wl).input_tile)

    def flops(edge):
        return direct_pass_cost(graph.nodes[edge.src].shape, edge.kernel,
                                edge.sparsity)["flops"]

    layer_flops = defaultdict(float)
    for edge in graph.edges.values():
        if edge.kind == "conv":
            layer_flops[graph.nodes[edge.dst].layer] += flops(edge)
    hot_layer = max(layer_flops, key=layer_flops.get)
    conv = next(e for e in graph.edges.values() if e.kind == "conv"
                and graph.nodes[e.dst].layer == hot_layer)
    filt = max((e for e in graph.edges.values() if e.kind == "filter"),
               key=lambda e: np.prod(graph.nodes[e.src].shape))
    return {
        "conv": conv, "conv_flops": flops(conv),
        "conv_in": graph.nodes[conv.src].shape,
        "conv_out": graph.nodes[conv.dst].shape,
        "fan_in": len(graph.nodes[conv.dst].in_edges),
        "filter": filt, "filter_in": graph.nodes[filt.src].shape,
        "priorities": len(set(forward_priorities(graph).values())),
    }


def kernel_probes(wl, seed, repeats):
    hot = hot_shapes(wl)
    rng = np.random.default_rng(seed)
    conv, sparsity = hot["conv"], hot["conv"].sparsity
    image = rng.standard_normal(hot["conv_in"])
    grad = rng.standard_normal(hot["conv_out"])
    kernel = rng.standard_normal(conv.kernel)
    out = {}

    fwd = median_seconds(lambda: correlate_valid(image, kernel, sparsity),
                         repeats)
    out["tensor.conv_direct.fwd_ms"] = fwd * 1e3
    out["tensor.conv_direct.fwd_gflops"] = hot["conv_flops"] / fwd / 1e9
    out["tensor.conv_direct.bwd_ms"] = 1e3 * median_seconds(
        lambda: conv_backward_input(grad, kernel, sparsity), repeats)
    out["tensor.conv_direct.upd_ms"] = 1e3 * median_seconds(
        lambda: conv_kernel_gradient(image, grad, sparsity), repeats)

    plan = FftConvPlan(image.shape, kernel.shape, sparsity)
    image_spec = plan.image_spectrum(image)
    kernel_spec = plan.kernel_spectrum(kernel)
    out["tensor.fourier.forward_ms"] = 1e3 * median_seconds(
        lambda: forward_transform(image, plan.transform_shape), repeats)
    out["tensor.fourier.inverse_ms"] = 1e3 * median_seconds(
        lambda: inverse_transform(image_spec, plan.transform_shape), repeats)
    out["tensor.conv_fft.product_ms"] = 1e3 * median_seconds(
        lambda: plan.forward_product(image_spec, kernel_spec), repeats)
    out["tensor.conv_fft.fwd_ms"] = 1e3 * median_seconds(
        lambda: fft_correlate_valid(image, kernel, sparsity), repeats)
    out["tensor.conv_fft.bwd_ms"] = 1e3 * median_seconds(
        lambda: fft_conv_backward_input(grad, kernel, sparsity), repeats)
    out["tensor.conv_fft.upd_ms"] = 1e3 * median_seconds(
        lambda: fft_conv_kernel_gradient(image, grad, sparsity), repeats)

    cache = TransformCache()
    cache.get_or_compute("img", "probe", lambda: image_spec)
    out["tensor.fft_cache.hit_us"] = 1e6 * median_seconds(
        lambda: cache.get_or_compute("img", "probe", lambda: image_spec),
        repeats, inner=100)

    filt = hot["filter"]
    field = rng.standard_normal(hot["filter_in"])
    filtered, argmax = max_filter_forward(field, filt.window, filt.sparsity)
    out["tensor.filtering.fwd_ms"] = 1e3 * median_seconds(
        lambda: max_filter_forward(field, filt.window, filt.sparsity),
        repeats)
    out["tensor.filtering.bwd_ms"] = 1e3 * median_seconds(
        lambda: max_filter_backward(filtered, argmax, field.shape), repeats)

    tanh = get_transfer("tanh")
    out["tensor.transfer.fwd_ms"] = 1e3 * median_seconds(
        lambda: tanh.apply(grad, 0.1), repeats)

    out["sync.summation.add_us"] = 1e6 * summation_add_seconds(
        grad, hot["fan_in"], repeats)
    out["sync.priority_queue.pushpop_us"] = 1e6 * median_seconds(
        lambda: push_pop(HeapOfLists(), hot["priorities"]), repeats,
    ) / (4 * hot["priorities"])
    out["scheduler.serial.task_us"] = 1e6 * median_seconds(
        serial_tasks, repeats) / TASKS
    with TaskEngine(num_workers=2) as engine:
        out["scheduler.engine.task_us"] = 1e6 * median_seconds(
            lambda: threaded_tasks(engine), repeats) / TASKS

    pool = PoolAllocator(alignment=64, name="bench-e2e")
    pool.deallocate_array(pool.allocate_array(grad.shape))

    def alloc_free():
        pool.deallocate_array(pool.allocate_array(grad.shape))

    out["memory.pools.alloc_us"] = 1e6 * median_seconds(
        alloc_free, repeats, inner=100)

    counter = MetricsRegistry().counter("bench.e2e.probe")
    out["observability.metrics.inc_ns"] = 1e9 * median_seconds(
        counter.inc, repeats, inner=1000)
    tracer = Tracer(enabled=True)
    out["observability.tracing.record_us"] = 1e6 * median_seconds(
        lambda: tracer.record("probe", 0.0, 1.0), repeats, inner=100)
    return out


def summation_add_seconds(image, fan_in, repeats):
    """Seconds per ``ConcurrentSum.add`` of one hot-shape image into a
    sum of *fan_in* contributions (``add`` takes ownership of its
    argument, so every contribution is a fresh copy made off the
    clock)."""
    times = []
    for _ in range(repeats):
        parts = [image.copy() for _ in range(fan_in)]
        total = ConcurrentSum(fan_in)
        start = time.perf_counter()
        for part in parts:
            total.add(part)
        times.append((time.perf_counter() - start) / fan_in)
    return statistics.median(times)


def push_pop(queue, priorities):
    """Four items at each of *priorities* distinct priorities, pushed
    then popped: the queue shape one forward pass of the graph makes."""
    for _ in range(4):
        for priority in range(priorities):
            queue.push(priority, None)
    for _ in range(4 * priorities):
        queue.pop(block=False)


def serial_tasks():
    engine = SerialEngine()
    for _ in range(TASKS):
        engine.spawn(lambda: None)
    engine.run_until_idle()


def threaded_tasks(engine):
    done = threading.Event()
    left = [TASKS]
    lock = threading.Lock()

    def task():
        with lock:
            left[0] -= 1
            if left[0] == 0:
                done.set()

    for _ in range(TASKS):
        engine.spawn(task)
    done.wait(timeout=60)


def graph_build_ms(wl, repeats):
    tile = W.tile_plan(wl).input_tile
    return 1e3 * median_seconds(
        lambda: build_task_graph(shaped_graph(wl, tile), wl.conv_mode),
        repeats)


def sample_ms(wl, seed, repeats):
    """Generating one input: a patch and its target (train) or one
    volume (serve)."""
    if wl.kind == "serve":
        rng = np.random.default_rng(seed)
        return 1e3 * median_seconds(
            lambda: rng.standard_normal(wl.volume), repeats)
    graph = shaped_graph(wl, W.tile_plan(wl).input_tile)
    provider = W.RandomProvider(graph.input_nodes[0].shape,
                                graph.output_nodes[0].shape, seed=seed)
    return 1e3 * median_seconds(provider.sample, repeats)


def network_probe(wl, seed, workers, steps):
    """Build, first step, then *steps* rounds of forward / train_step /
    synchronize on a side network with *workers* engine workers."""
    start = time.perf_counter()
    net = W.build_network(wl, workers=workers)
    build_s = time.perf_counter() - start
    try:
        provider = W.sample_provider(net, seed)
        x, t = provider.sample()
        start = time.perf_counter()
        net.train_step(x, t)
        first_step_s = time.perf_counter() - start
        net.synchronize()
        forward, step, sync = [], [], []
        for _ in range(steps):
            x, t = provider.sample()
            t0 = time.perf_counter()
            net.forward(x)
            t1 = time.perf_counter()
            net.train_step(x, t)
            t2 = time.perf_counter()
            net.synchronize()
            t3 = time.perf_counter()
            forward.append(t1 - t0)
            step.append(t2 - t1)
            sync.append(t3 - t2)
    finally:
        net.close()
    return {"build_s": build_s, "first_step_s": first_step_s,
            "forward_ms": 1e3 * statistics.median(forward),
            "train_step_ms": 1e3 * statistics.median(step),
            "synchronize_ms": 1e3 * statistics.median(sync)}


def network_probes(wl, seed, steps):
    """``core.network.*`` at the workload's own worker count, and the
    one-worker over two-worker update time."""
    runs = {workers: network_probe(wl, seed, workers, steps)
            for workers in (1, 2)}
    own = runs[wl.net_workers]
    out = {f"core.network.{key}": value for key, value in own.items()}
    out["core.network.backward_share"] = (
        1.0 - own["forward_ms"] / own["train_step_ms"])

    def update_ms(run):
        return run["train_step_ms"] + run["synchronize_ms"]

    out["scheduler.engine.scaling_2w"] = update_ms(runs[1]) / update_ms(
        runs[2])
    return out


def serving_probe(wl, seed, window_s, repeats):
    """``serving.*``: plan, cold and warm registry look-ups, a direct
    ``WarmModel.run``, then three short closed loops through a server
    (one client; two clients; two clients on a one-worker server)."""
    volumes = W.make_volumes(wl, seed)
    fov = W.model_spec(wl).fov
    out = {}

    def make_plan():
        return plan_volume(wl.volume, fov, max_voxels=wl.tile_voxels)

    plan = make_plan()
    plan_ms = 1e3 * median_seconds(make_plan, repeats)
    out["serving.tiler.plan_ms"] = plan_ms
    out["serving.tiler.tiles_per_request"] = plan.num_tiles
    out["serving.tiler.recompute_fraction"] = plan.recompute_fraction

    registry = W.open_registry(wl)
    try:
        start = time.perf_counter()
        warm = registry.warm(wl.name, plan.input_tile)
        out["serving.registry.warm_build_s"] = time.perf_counter() - start
        hit_s = median_seconds(
            lambda: registry.warm(wl.name, plan.input_tile), repeats,
            inner=100)
        out["serving.registry.warm_hit_us"] = 1e6 * hit_s
        run_ms = 1e3 * median_seconds(
            lambda: warm.run(volumes[0], plan), max(3, repeats // 3))
        out["serving.registry.run_ms"] = run_ms

        def load(clients, workers):
            server = W.open_server(wl, registry, workers=workers)

            def op(index, recorder):
                reply = server.infer(wl.name, volumes[index % W.POOL],
                                     timeout=60)
                return W.check_reply(reply, plan.dense_shape), reply.size

            try:
                return W.closed_loop(op, window_s, clients=clients)
            finally:
                server.stop()

        alone = load(1, W.SERVER_WORKERS)
        pair = load(W.SERVE_CLIENTS, W.SERVER_WORKERS)
        pair_one_worker = load(W.SERVE_CLIENTS, 1)
    finally:
        registry.close()
    infer_ms = 1e3 * statistics.median(alone.samples)
    out["serving.pipeline.infer_ms"] = infer_ms
    out["serving.pipeline.overhead_ms"] = (
        infer_ms - plan_ms - 1e3 * hit_s - run_ms)
    out["serving.pipeline.queue_wait_ms"] = (
        1e3 * statistics.median(pair.samples) - infer_ms)
    out["serving.pipeline.scaling_2w"] = (
        (pair.voxels / pair.wall_s)
        / (pair_one_worker.voxels / pair_one_worker.wall_s))
    out["serving.pipeline.op_s_p99"] = W.percentile(pair.samples, 99)
    failed = alone.failed + pair.failed + pair_one_worker.failed
    attempted = (alone.attempted + pair.attempted
                 + pair_one_worker.attempted)
    return out, attempted, failed
