import math

import numpy as np
import pytest

from rankmil.numerics import (
    Rng,
    ceil_frac,
    derive,
    mix64,
)


def test_mix64_golden_values():
    """The generator constants are frozen; these values pin them."""
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(2**64 - 1) == mix64(-1)


def test_derive_golden_values():
    assert derive(1) == 10451216379200822465
    assert derive(1, 7) == 441775961907197566
    assert derive(1, 7, 0) == 17596435962412376491


def test_derive_salts_decorrelate():
    seen = {derive(5, salt) for salt in range(64)}
    assert len(seen) == 64
    assert derive(5, 3) != derive(5, 3, 0)
    assert derive(5) != derive(6)


def test_rng_golden_stream():
    rng = Rng(42)
    assert [rng.next_u64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_u64_block_matches_scalar_path():
    for seed in (0, 1, 42, 2**63):
        for n in (1, 2, 7, 64, 129):
            a = Rng(seed)
            b = Rng(seed)
            block = a.u64_block(n)
            scalar = np.array([b.next_u64() for _ in range(n)], dtype=np.uint64)
            assert np.array_equal(block, scalar)
            # Both walked the same distance: streams stay in lockstep.
            assert a.next_u64() == b.next_u64()


def test_u64_block_rejects_negative_size():
    with pytest.raises(ValueError, match="block size"):
        Rng(1).u64_block(-1)


def test_uniform_in_unit_interval():
    rng = Rng(3)
    draws = rng.uniform_block(10_000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    single = Rng(3)
    assert single.uniform() == draws[0]


def test_gauss_block_matches_across_lengths():
    """An odd request burns the whole final pair, so positions in the
    underlying stream depend only on the count requested so far."""
    whole = Rng(11).gauss_block(8)
    first = Rng(11).gauss_block(3)
    assert np.array_equal(first, whole[:3])
    rng = Rng(11)
    rng.gauss_block(3)
    # 3 draws consumed 2 pairs = 4 uniforms; the next block starts there.
    tail = rng.gauss_block(4)
    assert np.array_equal(tail, whole[4:8])


def test_gauss_golden_values():
    got = Rng(42).gauss_block(4)
    want = np.array(
        [
            0.8822489062222688,
            1.388473285287707,
            -0.4508498757188601,
            0.6707164409024291,
        ]
    )
    assert np.array_equal(got, want)


def _gauss_block_reference(rng, n):
    """Box-Muller as first written, one temporary per step: the in-place
    kernel must reproduce it bit for bit."""
    pairs = (n + 1) // 2
    u = rng.uniform_block(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * math.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 31, 64, 9601, 14400, 19200])
@pytest.mark.parametrize("seed", [1, 42, 2**63 - 5, 2**64 - 3])
def test_gauss_block_matches_reference_bits(seed, n):
    rng, ref = Rng(seed), Rng(seed)
    got = rng.gauss_block(n)
    want = _gauss_block_reference(ref, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.next_u64() == ref.next_u64()


def test_gauss_moments():
    draws = Rng(7).gauss_block(100_000)
    assert abs(float(draws.mean())) < 0.02
    assert abs(float(draws.var()) - 1.0) < 0.05


def test_bounded_int_range_and_coverage():
    rng = Rng(9)
    draws = [rng.bounded_int(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError, match="bound"):
        rng.bounded_int(0)


def test_shuffle_is_a_permutation():
    for seed in range(20):
        items = list(range(31))
        Rng(seed).shuffle(items)
        assert sorted(items) == list(range(31))
    once = list(range(31))
    again = list(range(31))
    Rng(5).shuffle(once)
    Rng(5).shuffle(again)
    assert once == again


def test_shuffle_matches_sequential_draws_for_every_length():
    """The block of draws equals one bounded_int(i + 1) per swap, top
    down, and leaves the stream where the per-swap draws would."""
    for n in range(601):
        rng, ref = Rng(n), Rng(n)
        got = list(range(n))
        want = list(range(n))
        rng.shuffle(got)
        for i in range(n - 1, 0, -1):
            j = ref.bounded_int(i + 1)
            want[i], want[j] = want[j], want[i]
        assert got == want
        assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize(
    "fraction,n,want",
    [
        (0.1, 30, 3),  # 0.1 * 30 rounds one ulp above 3.0 in floats
        (0.1, 10, 1),
        (0.1, 11, 2),
        (1.0, 5, 5),
        (0.5, 1, 1),
        (0.3, 0, 0),
        (0.0, 9, 0),
    ],
)
def test_ceil_frac(fraction, n, want):
    assert ceil_frac(fraction, n) == want


def test_ceil_frac_rejects_bad_arguments():
    with pytest.raises(ValueError, match="count"):
        ceil_frac(0.5, -1)
    with pytest.raises(ValueError, match="fraction"):
        ceil_frac(-0.1, 5)
    with pytest.raises(ValueError, match="fraction"):
        ceil_frac(math.nan, 5)
