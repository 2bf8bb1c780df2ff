import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import rng as crng


def test_streams_are_reproducible_and_distinct():
    keys = crng.stream_keys([3, 4], stream=17)
    again = crng.stream_keys([3, 4], stream=17)
    np.testing.assert_array_equal(keys, again)
    assert keys[0] != keys[1]
    assert crng.stream_keys([3], stream=18)[0] != keys[0]


def test_uniforms_range_and_mean():
    keys = crng.stream_keys(np.arange(50), stream=0)
    u = crng.uniforms(keys[:, None], np.arange(2000))
    assert u.shape == (50, 2000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean of 1e5 uniforms: 0.5 +- ~5 sigma
    assert abs(u.mean() - 0.5) < 5 * 0.2887 / np.sqrt(u.size)


def test_randints_exact_range_and_uniformity():
    keys = crng.stream_keys(np.arange(100), stream=1)
    draws = crng.randints(keys[:, None], np.arange(1000), 7)
    assert draws.min() >= 0 and draws.max() <= 6
    counts = np.bincount(draws.ravel(), minlength=7)
    expected = draws.size / 7
    assert np.abs(counts - expected).max() < 5 * np.sqrt(expected)


def test_randints_modulus_one():
    keys = crng.stream_keys([0], stream=2)
    assert np.all(crng.randints(keys[:, None], np.arange(100), 1) == 0)


def test_weighted_indices_follow_weights():
    w = np.array([0.1, 0.2, 0.7])
    keys = crng.stream_keys(np.arange(200), stream=3)
    idx = crng.weighted_indices(keys[:, None], np.arange(500), np.cumsum(w))
    freq = np.bincount(idx.ravel(), minlength=3) / idx.size
    np.testing.assert_allclose(freq, w, atol=0.01)


def test_slot_values_independent_of_block_shape():
    keys = crng.stream_keys([[9]], stream=4)
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
    by_slot = crng.randints(crng.stream_keys(seeds[:, None], stream=5), np.arange(40), n)
    chi, _ = _pair_chi_square(by_slot[:, :-1].ravel(), by_slot[:, 1:].ravel(), n)
    assert chi < limit
    step_a = crng.randints(crng.stream_keys(seeds[:, None], stream=6), np.arange(40), n)
    step_b = crng.randints(crng.stream_keys(seeds[:, None], stream=7), np.arange(40), n)
    chi, _ = _pair_chi_square(step_a.ravel(), step_b.ravel(), n)
    assert chi < limit
    chi, _ = _pair_chi_square(by_slot[:-1].ravel(), by_slot[1:].ravel(), n)
    assert chi < limit


def test_stream_keys_for_many_streams_match_one_at_a_time():
    seeds = np.array([-5, 0, 3, 2**40])
    streams = (1 << 40) + np.arange(7)
    keys = crng.stream_keys(seeds[:, None], streams)
    assert keys.shape == (4, 7)
    for k, stream in enumerate(streams):
        np.testing.assert_array_equal(keys[:, k], crng.stream_keys(seeds, int(stream)))


def test_randints_with_one_modulus_per_slot():
    keys = crng.stream_keys(np.arange(30), stream=9)[:, None]
    moduli = np.array([1, 2, 7, 1000, 1 << 31])
    draws = crng.randints(keys, np.arange(5), moduli)
    for j, n in enumerate(moduli):
        np.testing.assert_array_equal(draws[:, j], crng.randints(keys, np.array([j]), int(n))[:, 0])


def _lemire_reference(key: int, slot: int, n: int) -> tuple[int, int]:
    """The documented method for one (key, slot), on Python ints: the top 32
    bits of the splitmix64 value at the slot times n, rejected while the low
    32 bits of the product fall under (2**32 - n) % n, each retry taking the
    value of the next derived round.  Returns the draw and the rounds taken."""
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    threshold = (2**32 - n) % n
    round_ = 0
    while True:
        ctr = (key + (slot + 1) * 0x9E3779B97F4A7C15 + round_ * 0xD1342543DE82EF95) & mask
        prod = (mix(ctr) >> 32) * n
        if prod & 0xFFFFFFFF >= threshold:
            return prod >> 32, round_ + 1
        round_ += 1


def test_randints_rejection_rounds_match_the_reference():
    # n = 3 * 2**29 rejects the 2**30 low products under (2**32 - n) % n:
    # a quarter of first-round draws, a sixteenth of second-round ones
    n = 3 << 29
    keys = crng.stream_keys(np.arange(8), stream=10)
    draws = crng.randints(keys[:, None], np.arange(64), n)
    rounds = []
    for i, key in enumerate(keys.tolist()):
        for slot in range(64):
            want, taken = _lemire_reference(key, slot, n)
            assert draws[i, slot] == want
            rounds.append(taken)
    assert 0.15 < np.mean(np.array(rounds) > 1) < 0.35
    assert max(rounds) >= 3


def test_randints_per_slot_moduli_mix_rejecting_and_exact_ones():
    # 3 * 2**29 and 5 * 2**28 reject 25% and 6.25% of first rounds; 2**31 and
    # 2**30 never reject, and 7 and 1000 only with probability < 1e-6
    moduli = np.array([3 << 29, 7, 1 << 31, 5 << 28, 1000, 1 << 30])
    keys = crng.stream_keys(np.arange(20), stream=11)
    slots = np.arange(moduli.size)
    draws = crng.randints(keys[:, None], slots, moduli)
    rejected = 0
    for i, key in enumerate(keys.tolist()):
        for slot, n in zip(slots.tolist(), moduli.tolist()):
            want, taken = _lemire_reference(key, slot, n)
            assert draws[i, slot] == want
            rejected += taken > 1
    assert rejected > 0


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=40),
       stream=st.integers(0, 2**45), first=st.integers(0, 2**40), m=st.integers(1, 20),
       data=st.data())
def test_slot_major_form_is_the_row_major_form_transposed(seeds, stream, first, m, data):
    # one modulus per slot, among them moduli near 2**31 whose first rounds
    # reject up to a third of their draws
    keys = crng.stream_keys(np.array(seeds), stream)
    slots = first + np.arange(m)
    moduli = np.array(data.draw(st.lists(
        st.integers(1, 1 << 31) | st.integers((1 << 32) // 3, 1 << 31) | st.just(3 << 29),
        min_size=m, max_size=m)))
    cum = np.cumsum(np.arange(1.0, 6.0)) / 15.0
    for slot_major, row_major in [
        (crng.raw64(keys, slots[:, None]), crng.raw64(keys[:, None], slots)),
        (crng.uniforms(keys, slots[:, None]), crng.uniforms(keys[:, None], slots)),
        (crng.randints(keys, slots[:, None], moduli[:, None]),
         crng.randints(keys[:, None], slots, moduli)),
        (crng.weighted_indices(keys, slots[:, None], cum),
         crng.weighted_indices(keys[:, None], slots, cum)),
    ]:
        assert slot_major.shape == (m, keys.size) and slot_major.flags.c_contiguous
        assert slot_major.dtype == row_major.dtype
        np.testing.assert_array_equal(slot_major, row_major.T)


def test_slot_major_randints_take_rejection_rounds_like_the_reference():
    # 3 * 2**29 rejects a quarter of first rounds: 64 slots of 8 keys reject
    n = 3 << 29
    keys = crng.stream_keys(np.arange(8), stream=12)
    draws = crng.randints(keys, np.arange(64)[:, None], n)
    rounds = 0
    for i, key in enumerate(keys.tolist()):
        for slot in range(64):
            want, taken = _lemire_reference(key, slot, n)
            assert draws[slot, i] == want
            rounds += taken > 1
    assert rounds > 0


def test_stream_keys_of_many_streams_are_stream_major():
    seeds, streams = np.array([-5, 0, 3, 2**40]), (1 << 41) + np.arange(7)
    keys = crng.stream_keys(seeds, streams[:, None])
    assert keys.shape == (7, 4) and keys.flags.c_contiguous
    np.testing.assert_array_equal(keys, crng.stream_keys(seeds[:, None], streams).T)
