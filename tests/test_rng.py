import numpy as np

from rsgd import rng as crng


def test_streams_are_reproducible_and_distinct():
    keys = crng.stream_keys([3, 4], stream=17)
    again = crng.stream_keys([3, 4], stream=17)
    np.testing.assert_array_equal(keys, again)
    assert keys[0] != keys[1]
    assert crng.stream_keys([3], stream=18)[0] != keys[0]


def test_uniforms_range_and_mean():
    keys = crng.stream_keys(np.arange(50), stream=0)
    u = crng.uniforms(keys, np.arange(2000))
    assert u.shape == (50, 2000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean of 1e5 uniforms: 0.5 +- ~5 sigma
    assert abs(u.mean() - 0.5) < 5 * 0.2887 / np.sqrt(u.size)


def test_randints_exact_range_and_uniformity():
    keys = crng.stream_keys(np.arange(100), stream=1)
    draws = crng.randints(keys, np.arange(1000), 7)
    assert draws.min() >= 0 and draws.max() <= 6
    counts = np.bincount(draws.ravel(), minlength=7)
    expected = draws.size / 7
    assert np.abs(counts - expected).max() < 5 * np.sqrt(expected)


def test_randints_modulus_one():
    keys = crng.stream_keys([0], stream=2)
    assert np.all(crng.randints(keys, np.arange(100), 1) == 0)


def test_weighted_indices_follow_weights():
    w = np.array([0.1, 0.2, 0.7])
    keys = crng.stream_keys(np.arange(200), stream=3)
    idx = crng.weighted_indices(keys, np.arange(500), np.cumsum(w))
    freq = np.bincount(idx.ravel(), minlength=3) / idx.size
    np.testing.assert_allclose(freq, w, atol=0.01)


def test_slot_values_independent_of_block_shape():
    keys = crng.stream_keys([9], stream=4)
    wide = crng.raw64(keys, np.arange(64))
    narrow = crng.raw64(keys, np.arange(8))
    np.testing.assert_array_equal(wide[0, :8], narrow[0])


def _pair_chi_square(a, b, n):
    counts = np.bincount(a * n + b, minlength=n * n)
    expected = a.size / (n * n)
    return float(((counts - expected) ** 2 / expected).sum()), n * n - 1


def test_no_serial_correlation_smoke():
    # chi-square on consecutive-draw pairs along three axes: adjacent slots,
    # adjacent steps, adjacent seeds; ~5 sigma acceptance on 255 dof
    n = 16
    limit = 255 + 5 * np.sqrt(2 * 255)
    seeds = np.arange(2000)
    by_slot = crng.randints(crng.stream_keys(seeds, stream=5), np.arange(40), n)
    chi, _ = _pair_chi_square(by_slot[:, :-1].ravel(), by_slot[:, 1:].ravel(), n)
    assert chi < limit
    step_a = crng.randints(crng.stream_keys(seeds, stream=6), np.arange(40), n)
    step_b = crng.randints(crng.stream_keys(seeds, stream=7), np.arange(40), n)
    chi, _ = _pair_chi_square(step_a.ravel(), step_b.ravel(), n)
    assert chi < limit
    chi, _ = _pair_chi_square(by_slot[:-1].ravel(), by_slot[1:].ravel(), n)
    assert chi < limit


def test_stream_keys_for_many_streams_match_one_at_a_time():
    seeds = np.array([-5, 0, 3, 2**40])
    streams = (1 << 40) + np.arange(7)
    keys = crng.stream_keys(seeds, streams)
    assert keys.shape == (4, 7)
    for k, stream in enumerate(streams):
        np.testing.assert_array_equal(keys[:, k], crng.stream_keys(seeds, int(stream)))


def test_randints_with_one_modulus_per_slot():
    keys = crng.stream_keys(np.arange(30), stream=9)
    moduli = np.array([1, 2, 7, 1000, 1 << 31])
    draws = crng.randints(keys, np.arange(5), moduli)
    for j, n in enumerate(moduli):
        np.testing.assert_array_equal(draws[:, j], crng.randints(keys, np.array([j]), int(n))[:, 0])
