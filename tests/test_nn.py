"""Network tests: layer grammar, shape planning, init determinism, loss
values, and gradient correctness against central finite differences."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from canclab import (
    ConfigError,
    Conv,
    Dense,
    LeakyRelu,
    NetworkSpec,
    NumericError,
    TrainConfig,
    flip_labels,
    forward,
    init_network,
    loss_and_gradients,
    parse_layers,
    per_sample_loss,
    predict,
    sgd_step,
    swap_logits,
)
from canclab import nn
from canclab.nn import _backward, _forward, layer_plan
from oracles import (chunk_forwards, chunk_order_backward, full_backward, pair_iteration,
                     tensordot_forward, zeroed)


def tiny_spec(seed=0):
    return NetworkSpec(
        input_size=12,
        channels=1,
        layers=parse_layers("conv(3,3,2) lrelu(0.1) dense(2)"),
        seed=seed,
    )


def rand_batch(spec, n=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, spec.input_size, spec.input_size, spec.channels))
    y = rng.integers(0, 2, size=n)
    return x, y


# ---------------------------------------------------------------------------
# grammar and shape planning


def test_parse_layers_grammar():
    layers = parse_layers("conv(6,5,2) lrelu(0.1) conv(12,3) dense(2)")
    assert layers == (Conv(6, 5, 2), LeakyRelu(0.1), Conv(12, 3, 1), Dense(2))
    assert parse_layers("dense(10)") == (Dense(10),)


def test_parse_layers_rejects_junk():
    # a dense layer names only its output width: dense(IN,OUT) is not read
    for text in ("conv(6,5,2) blah(3)", "conv()", "dense(432,2)", "", "conv(6,5,2"):
        with pytest.raises(ConfigError):
            parse_layers(text)


def test_layer_plan_shapes():
    spec = NetworkSpec(
        input_size=32,
        channels=1,
        layers=parse_layers("conv(6,5,2) lrelu(0.1) conv(12,3,2) lrelu(0.1) dense(2)"),
    )
    plan = layer_plan(spec)
    # input shapes seen by each layer, conv arithmetic included, and the
    # weight shapes derived from them: the dense layer's 432 = 6 * 6 * 12
    assert [shape for _, shape, _ in plan] == [
        (32, 32, 1), (14, 14, 6), (14, 14, 6), (6, 6, 12), (6, 6, 12),
    ]
    assert [wshape for _, _, wshape in plan] == [(5, 5, 1, 6), None, (3, 3, 6, 12), None, (432, 2)]


@pytest.mark.parametrize("m", [16, 32, 64])
def test_default_layer_list_builds_for_every_mask_size(m):
    spec = NetworkSpec(m, 1, parse_layers(TrainConfig().network))
    side = ((m - 5) // 2 + 1 - 3) // 2 + 1
    assert layer_plan(spec)[-1][2] == (side * side * 12, 2)
    assert [w.shape for w, _ in init_network(spec).params][-1] == (side * side * 12, 2)


def test_layer_plan_rejects_oversized_kernel():
    with pytest.raises(ConfigError):
        NetworkSpec(input_size=4, channels=1, layers=parse_layers("conv(2,5,1) dense(2)"))


@pytest.mark.parametrize("slope", ["-0.1", "1.5", "nan", "inf", "-0.0"])
def test_layer_plan_rejects_a_slope_outside_zero_one(slope):
    # the branch-free leaky ReLU is exact only for 0 <= slope <= 1, and
    # -0.0 would turn a -0.0 gradient factor into +0.0
    with pytest.raises(ConfigError, match=r"layer 1: lrelu slope must be in \[0, 1\]"):
        NetworkSpec(input_size=12, channels=1, layers=parse_layers(f"conv(3,3,2) lrelu({slope}) dense(2)"))


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_and_seed_sensitive():
    a = init_network(tiny_spec(seed=3))
    b = init_network(tiny_spec(seed=3))
    c = init_network(tiny_spec(seed=4))
    for (wa, ba_), (wb, bb) in zip(a.params, b.params):
        assert np.array_equal(wa, wb) and np.array_equal(ba_, bb)
    assert any(not np.array_equal(wa, wc) for (wa, _), (wc, _) in zip(a.params, c.params))


def test_init_he_uniform_bounds_and_zero_bias():
    net = init_network(tiny_spec())
    conv_w, conv_b = net.params[0]
    fan_in = 3 * 3 * 1
    limit = math.sqrt(6.0 / fan_in)
    assert np.all(np.abs(conv_w) <= limit)
    assert np.all(conv_b == 0.0)


def test_init_draws_the_default_network_in_layer_order():
    """The init contract: one generator seeded with spec.seed draws each
    weight array uniform in +-sqrt(6 / fan_in) in layer order, biases 0."""
    spec = NetworkSpec(32, 1, parse_layers(TrainConfig().network), seed=11)
    rng, params = np.random.default_rng(11), init_network(spec).params
    assert len(params) == 3
    for (w, b), shape in zip(params, [(5, 5, 1, 6), (3, 3, 6, 12), (432, 2)]):
        limit = math.sqrt(6.0 / math.prod(shape[:-1]))
        assert w.tobytes() == rng.uniform(-limit, limit, size=shape).tobytes()
        assert w.shape == shape and b.shape == shape[-1:] and not b.any()


# ---------------------------------------------------------------------------
# loss values


def test_loss_is_ln2_at_equal_logits():
    # a zero-weight network produces equal logits for every sample
    net = zeroed(init_network(tiny_spec()))
    x, y = rand_batch(tiny_spec())
    losses = per_sample_loss(forward(net, x)[0], y)
    assert np.all(losses == math.log(2.0))


def test_loss_extremes_stay_finite():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    y = np.array([0, 0])
    vals = per_sample_loss(logits, y)
    assert vals[0] == 0.0  # correct by a huge margin
    assert vals[1] == pytest.approx(2000.0)  # wrong by a huge margin, not inf


def test_loss_matches_naive_softmax_ce():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(50, 2)) * 3
    y = rng.integers(0, 2, size=50)
    naive = -np.log(
        np.exp(logits[np.arange(50), y]) / np.exp(logits).sum(axis=1)
    )
    assert np.allclose(per_sample_loss(logits, y), naive, rtol=1e-12, atol=1e-12)


def test_predict_tie_goes_to_class_zero():
    net = zeroed(init_network(tiny_spec()))
    x, _ = rand_batch(tiny_spec(), n=3)
    assert np.all(predict(net, x) == 0)


# ---------------------------------------------------------------------------
# gradients vs central finite differences


def _loss_of(net, x, y, rows=slice(None)):
    return float(per_sample_loss(forward(net, x)[0], y)[rows].mean())


def _max_rel_err(net, x, y, rows=None):
    """The worst relative gap between loss_and_gradients' gradients and
    central finite differences of the loss, over every parameter; rows, if
    given, must be distinct."""
    _, grads = loss_and_gradients(net, y, forward(net, x), rows)
    rows = slice(None) if rows is None else np.sort(rows)
    h = 1e-5
    worst = 0.0
    for p, (dw, db) in enumerate(grads):
        for arr, g in ((net.params[p][0], dw), (net.params[p][1], db)):
            for idx in np.ndindex(*arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = _loss_of(net, x, y, rows)
                arr[idx] = orig - h
                lm = _loss_of(net, x, y, rows)
                arr[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
                worst = max(worst, rel)
    return worst


def _fd_case(spec):
    return init_network(spec), *rand_batch(spec)


def test_gradients_all_layer_types():
    assert _max_rel_err(*_fd_case(tiny_spec(seed=3))) <= 1e-4


def test_gradients_deeper_multichannel():
    spec = NetworkSpec(
        input_size=10,
        channels=2,
        layers=parse_layers("conv(2,3,1) lrelu(0.2) conv(3,3,2) lrelu(0.1) dense(2)"),
        seed=5,
    )
    assert _max_rel_err(*_fd_case(spec)) <= 1e-4


def test_gradients_stride_remainder():
    # (9 - 4) % 3 != 0: output grid does not tile the input exactly
    spec = NetworkSpec(
        input_size=9, channels=1, layers=parse_layers("conv(2,4,3) lrelu(0.1) dense(2)"), seed=7
    )
    assert _max_rel_err(*_fd_case(spec)) <= 1e-4


# ---------------------------------------------------------------------------
# sgd_step


def step_on(net, x, y, lr):
    """sgd_step on a fresh forward of net over x, every row chosen."""
    return sgd_step(net, y, forward(net, x), lr)


def test_sgd_step_zero_lr_is_identity():
    net = init_network(tiny_spec())
    stepped = step_on(net, *rand_batch(tiny_spec()), 0.0)
    for (w0, b0), (w1, b1) in zip(net.params, stepped.params):
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


def test_sgd_step_negative_lr_rejected():
    net = init_network(tiny_spec())
    with pytest.raises(ConfigError):
        step_on(net, *rand_batch(tiny_spec()), -0.1)


def test_sgd_step_decreases_loss():
    net = init_network(tiny_spec(seed=2))
    x, y = rand_batch(tiny_spec(), n=8, seed=9)
    before = _loss_of(net, x, y)
    for _ in range(20):
        net = step_on(net, x, y, 0.5)
    after = _loss_of(net, x, y)
    assert after < before


def test_sgd_step_does_not_mutate_input_network():
    net = init_network(tiny_spec())
    snapshot = [(w.copy(), b.copy()) for w, b in net.params]
    step_on(net, *rand_batch(tiny_spec()), 0.7)
    for (w0, b0), (w1, b1) in zip(snapshot, net.params):
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


BITWISE_NETS = {
    "default": (32, "conv(6,5,2) lrelu(0.1) conv(12,3,2) lrelu(0.1) dense(2)"),
    "criterion6": (16, "conv(3,3,2) lrelu(0.1) dense(2)"),
    "two_dense": (16, "conv(3,3,2) lrelu(0.1) dense(8) lrelu(0.1) dense(2)"),
}


@pytest.mark.parametrize("b", [1, 7, 51, 64, 512])
@pytest.mark.parametrize("name", sorted(BITWISE_NETS))
def test_backward_bitwise_equals_full_backward_oracle(monkeypatch, name, b):
    """Skipping the input gradient and transposing each conv weight once
    must leave every gradient, and a masked step on chosen rows with some
    labels flipped, bitwise as the full backward gives them."""
    size, layers = BITWISE_NETS[name]
    spec = NetworkSpec(input_size=size, channels=1, layers=parse_layers(layers), seed=b)
    net = init_network(spec)
    rng = np.random.default_rng(b)
    x = rng.uniform(0.0, 1.0, size=(b, size, size, 1))
    y = rng.integers(0, 2, size=b)
    logits, caches = _forward(net, x)
    dlogits = rng.normal(size=logits.shape) / b
    for (gw, gb), (ow, ob) in zip(_backward(net, caches, dlogits), full_backward(net, caches, dlogits)):
        assert gw.tobytes() == ow.tobytes() and gb.tobytes() == ob.tobytes()

    # a peer step as CANC takes it: chosen rows of the forward above, some
    # of them with flipped labels
    order = rng.permutation(b)
    n_keep = (3 * b) // 5
    keep, flip = order[:n_keep], order[n_keep : max(n_keep + 1, (4 * b) // 5)]
    rows, peer_y = np.concatenate([keep, flip]), flip_labels(y, flip)
    got = sgd_step(net, peer_y, (logits, [caches]), 0.05, rows)
    monkeypatch.setattr(nn, "_backward", full_backward)
    want = sgd_step(net, peer_y, (logits, [caches]), 0.05, rows)
    for (gw, gb), (ow, ob) in zip(got.params, want.params):
        assert gw.tobytes() == ow.tobytes() and gb.tobytes() == ob.tobytes()


# chunks of 128, 128 and 5 rows
RAGGED = 261
# none in the first chunk; row 128 but not 127, the 255 | 256 edge, and the
# tail chunk
RAGGED_ROWS = [128, 129, 200, 254, 255, 256, 257, 260]
# criterion 3's network
FD_SPEC = NetworkSpec(8, 1, parse_layers("conv(3,3,2) lrelu(0.1) conv(4,3,1) lrelu(0.2) dense(2)"),
                      seed=11)


def ragged_batch(size, seed):
    """RAGGED rows of side size, with labels flipped at two chosen rows."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(RAGGED, size, size, 1))
    return x, flip_labels(rng.integers(0, 2, size=RAGGED), [129, 256])


@pytest.mark.parametrize("rows", [None, RAGGED_ROWS])
@pytest.mark.parametrize("name", sorted(BITWISE_NETS))
def test_gradients_across_chunks_bitwise_equal_chunk_order_sum_of_full_backward(name, rows):
    """A batch over 128 rows steps on the sum, in chunk order, of each
    chunk's backward of its slice of the whole batch's logit gradient, bit
    for bit; full chunks keep the logits of one forward over their rows."""
    size, layers = BITWISE_NETS[name]
    net = init_network(NetworkSpec(size, 1, parse_layers(layers), seed=3))
    x, y = ragged_batch(size, seed=3)
    fwd = forward(net, x)
    assert [len(caches[0][1]) for caches in fwd[1]] == [128, 128, 5]
    assert fwd[0][:256].tobytes() == _forward(net, x[:256])[0].tobytes()
    loss, grads = loss_and_gradients(net, y, fwd, rows)

    chosen = np.zeros(RAGGED, dtype=bool)
    chosen[slice(None) if rows is None else rows] = True
    chunks = chunk_forwards(net, x)
    logits = np.concatenate([logits for logits, _ in chunks])
    expz = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits = expz / expz.sum(axis=1, keepdims=True)
    dlogits[np.arange(RAGGED), y] -= 1.0
    dlogits[~chosen] = 0.0
    want = chunk_order_backward(net, chunks, dlogits / chosen.sum())
    assert bitwise_equal(fwd[0], logits) and bitwise_equal(grads, want)
    assert loss == float(per_sample_loss(logits, y)[chosen].mean())


@pytest.mark.parametrize("rows", [None, RAGGED_ROWS])
def test_finite_differences_hold_across_chunks(rows):
    """Criterion 3's check at its tolerance, on a batch of three chunks."""
    x, y = ragged_batch(FD_SPEC.input_size, seed=5)
    assert _max_rel_err(init_network(FD_SPEC), x, y, rows) <= 1e-4


def bitwise_equal(a, b):
    """a and b hold the same values with the same shapes and dtypes, bit
    for bit, through nested tuples and lists."""
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(bitwise_equal(u, v) for u, v in zip(a, b))
    return a == b


@pytest.mark.parametrize("b", [1, 7, 64])
def test_forward_bitwise_equals_tensordot_oracle_over_conv_shapes(b):
    """The window gather must lay out the matrix tensordot builds: over
    sides, channels, kernels (1x1 and as large as the input), strides and
    output maps, the logits and every cache entry are bitwise the oracle's."""
    shapes = itertools.product([5, 12], [1, 3], [1, 2, 5], [1, 2, 3], [1, 6])
    for i, (h, c, k, s, o) in enumerate(shapes):
        layers = parse_layers(f"conv({o},{k},{s}) lrelu(0.1) dense(2)")
        net = init_network(NetworkSpec(input_size=h, channels=c, layers=layers, seed=i))
        x = np.random.default_rng(i).uniform(0.0, 1.0, size=(b, h, h, c))
        assert bitwise_equal(_forward(net, x), tensordot_forward(net, x)), (h, c, k, s, o)


@pytest.mark.parametrize("b", [1, 7, 64, 512])
def test_forward_bitwise_equals_tensordot_oracle_on_default_network(b):
    size, layers = BITWISE_NETS["default"]
    spec = NetworkSpec(input_size=size, channels=1, layers=parse_layers(layers), seed=b)
    net = init_network(spec)
    x = np.random.default_rng(b).uniform(0.0, 1.0, size=(b, size, size, 1))
    assert bitwise_equal(_forward(net, x), tensordot_forward(net, x))


LRELU_NETS = {
    "default": (32, "conv(6,5,2) lrelu({a}) conv(12,3,2) lrelu({a}) dense(2)"),
    "two_dense": (16, "conv(3,3,2) lrelu({a}) dense(8) lrelu({a}) dense(2)"),
    "leading_lrelu": (12, "lrelu({a}) conv(4,3,1) lrelu({a}) dense(2)"),
}


@pytest.mark.parametrize("b", [1, 7, 64, 512])
@pytest.mark.parametrize("slope", [0.0, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("name", sorted(LRELU_NETS))
def test_leaky_relu_bitwise_equals_where_oracle(monkeypatch, name, slope, b):
    """The branch-free leaky ReLU and the row-wide conv bias must give, bit
    for bit, what the np.where forms of the oracles give: logits and every
    cache entry, the loss, every gradient and predict's labels, at both
    ends of the slope range and inside it."""
    size, layers = LRELU_NETS[name]
    spec = NetworkSpec(size, 2, parse_layers(layers.format(a=slope)), seed=b)
    net = init_network(spec)
    rng = np.random.default_rng(b)
    # both signs and both signed zeros reach a leading lrelu
    x = rng.uniform(-1.0, 1.0, size=(b, size, size, 2))
    x[0, 0, 0] = (0.0, -0.0)
    y = rng.integers(0, 2, size=b)
    got, want = _forward(net, x), tensordot_forward(net, x)
    assert bitwise_equal(got, want)

    loss, grads = loss_and_gradients(net, y, (got[0], [got[1]]))
    monkeypatch.setattr(nn, "_backward", full_backward)
    want_loss, want_grads = loss_and_gradients(net, y, (want[0], [want[1]]))
    assert loss == want_loss and bitwise_equal(grads, want_grads)

    labels = np.argmax(want[0], axis=1), np.argmax(want[0][:, ::-1], axis=1)
    assert bitwise_equal(predict(net, x, twin=True), np.stack(labels))


def test_forward_leaves_the_callers_x_unchanged_under_a_leading_lrelu():
    spec = NetworkSpec(12, 1, parse_layers("lrelu(0.1) conv(3,3,2) lrelu(0.1) dense(2)"))
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 12, 12, 1))
    kept = x.copy()
    forward(init_network(spec), x)
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("rows", [[0, 4], [-1], [0, 3, -4]])
def test_loss_and_gradients_rejects_rows_outside_the_batch(rows):
    net = init_network(tiny_spec())
    x, y = rand_batch(tiny_spec(), n=4)
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        loss_and_gradients(net, y, forward(net, x), rows)


def test_loss_and_gradients_counts_a_repeated_row_once():
    net = init_network(tiny_spec())
    x, y = rand_batch(tiny_spec(), n=4)
    fwd = forward(net, x)
    repeated = loss_and_gradients(net, y, fwd, [2, 0, 2])
    assert bitwise_equal(repeated, loss_and_gradients(net, y, fwd, [0, 2]))


def test_swap_logits_inverts_predictions_and_leaves_input():
    net = init_network(tiny_spec(seed=3))
    net = step_on(net, *rand_batch(tiny_spec(), n=8, seed=5), 0.5)  # nonzero biases
    snapshot = [(w.copy(), b.copy()) for w, b in net.params]
    x, _ = rand_batch(tiny_spec(), n=64, seed=4)
    pred = predict(net, x)
    assert 0 < pred.sum() < len(pred)  # both classes occur
    twin = swap_logits(net)
    assert np.array_equal(predict(twin, x), 1 - pred)
    assert np.array_equal(_forward(twin, x)[0], _forward(net, x)[0][:, ::-1])
    for (w0, b0), (w1, b1) in zip(snapshot, net.params):
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


def test_non_finite_activation_raises_with_layer_index():
    net = init_network(tiny_spec())
    bad_w = net.params[0][0].copy()
    bad_w[0, 0, 0, 0] = np.inf
    broken = replace(net, params=((bad_w, net.params[0][1]),) + net.params[1:])
    with pytest.raises(NumericError) as err:
        forward(broken, rand_batch(tiny_spec())[0])
    assert err.value.layer == 0


def test_non_finite_activation_names_the_first_bad_chunks_layer():
    """A forward stops at the first chunk with a non-finite activation, so
    over several chunks the error names that chunk's first bad layer. Here
    row 0 overflows only at the dense layer (layer 2) and row 130 at the
    input conv (layer 0): one forward over both rows names layer 0, the
    chunked forward layer 2."""
    spec = NetworkSpec(4, 1, parse_layers("conv(1,1,1) lrelu(0.1) dense(2)"))
    net = init_network(spec)
    ones = replace(net, params=tuple((np.ones_like(w), np.zeros_like(b)) for w, b in net.params))
    x = np.zeros((200, 4, 4, 1))
    x[0] = 1e308
    x[130] = np.inf
    with pytest.raises(NumericError) as err:
        forward(ones, x)
    assert err.value.layer == 2
    with pytest.raises(NumericError) as err:
        _forward(ones, x)
    assert err.value.layer == 0


ENTRY_POINTS = {
    "canc_iteration": lambda net, x, y: pair_iteration(net, net, x, y, 1.0, 0.0, 0.1),
    "per_sample_loss": lambda net, x, y: per_sample_loss(forward(net, x)[0], y),
    "loss_and_gradients": lambda net, x, y: loss_and_gradients(net, y, forward(net, x)),
    "sgd_step": lambda net, x, y: step_on(net, x, y, 0.1),
}
BAD_INPUTS = {
    "not_4d": (np.zeros((4, 12, 12)), np.zeros(4, dtype=np.int64)),
    "wrong_spatial": (np.zeros((4, 10, 12, 1)), np.zeros(4, dtype=np.int64)),
    "wrong_channels": (np.zeros((4, 12, 12, 2)), np.zeros(4, dtype=np.int64)),
    "empty": (np.zeros((0, 12, 12, 1)), np.zeros(0, dtype=np.int64)),
    "labels_short": (np.zeros((4, 12, 12, 1)), np.zeros(3, dtype=np.int64)),
    "labels_2d": (np.zeros((4, 12, 12, 1)), np.zeros((4, 1), dtype=np.int64)),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_input(entry, case):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](init_network(tiny_spec()), *BAD_INPUTS[case])


def test_predict_input_contract():
    net = init_network(tiny_spec())
    assert predict(net, np.zeros((2, 12, 12, 1), dtype=np.float32)).tolist() == [0, 0]
    for case in ("not_4d", "wrong_spatial", "wrong_channels", "empty"):
        with pytest.raises(ValueError):
            predict(net, BAD_INPUTS[case][0])
