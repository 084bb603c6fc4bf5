"""Exhaustive checks of the slot index calculus for small n and k."""

import itertools
import time

import pytest

from opfactor.errors import CapacityExceeded
from opfactor.jet import (
    DerivIndex,
    Jet,
    axes_to_index,
    canonical_slot,
    compose_index,
    decompose_index,
    index_to_axes,
    index_to_multiindex,
    jet_size,
    multi_indices,
    multiindex_to_index,
    slot_count,
)


def all_indices(n_max=3, k_max=4):
    for n in range(1, n_max + 1):
        for k in range(k_max + 1):
            for h in range(1, slot_count(n, k) + 1):
                yield DerivIndex(k, h, n)


def test_slot_count_values():
    assert slot_count(1, 0) == 1
    assert slot_count(2, 3) == 8
    assert slot_count(3, 4) == 81
    with pytest.raises(ValueError):
        slot_count(0, 1)
    with pytest.raises(ValueError):
        slot_count(2, -1)


def test_slot_count_overflow():
    with pytest.raises(CapacityExceeded):
        slot_count(10, 19)
    with pytest.raises(CapacityExceeded):
        slot_count(2, 64)


def test_jet_size_formula():
    assert jet_size(1, 1, 2) == 3
    assert jet_size(2, 1, 2) == 7
    assert jet_size(2, 3, 2) == 21
    assert jet_size(3, 2, 0) == 2
    with pytest.raises(ValueError):
        jet_size(2, 0, 1)
    with pytest.raises(CapacityExceeded):
        jet_size(10, 1, 19)


def test_deriv_index_validation():
    with pytest.raises(ValueError):
        DerivIndex(1, 0, 2)
    with pytest.raises(ValueError):
        DerivIndex(1, 3, 2)
    with pytest.raises(ValueError):
        DerivIndex(-1, 1, 2)
    with pytest.raises(ValueError):
        DerivIndex(0, 1, 0)


def test_axes_roundtrip_exhaustive():
    for d in all_indices():
        axes = index_to_axes(d)
        assert len(axes) == d.k
        assert all(1 <= a <= d.n for a in axes)
        assert axes_to_index(axes, d.n) == d


def test_axes_enumeration_bijective():
    for n in range(1, 4):
        for k in range(5):
            words = {index_to_axes(DerivIndex(k, h, n)) for h in range(1, slot_count(n, k) + 1)}
            assert words == set(itertools.product(range(1, n + 1), repeat=k))


def test_compose_decompose_inverse():
    for d in all_indices(k_max=3):
        for axis in range(1, d.n + 1):
            up = compose_index(axis, d)
            assert up.k == d.k + 1
            assert index_to_axes(up) == index_to_axes(d) + (axis,)
            back_axis, back = decompose_index(up)
            assert back_axis == axis
            assert back == d


def test_decompose_order_zero_fails():
    with pytest.raises(ValueError):
        decompose_index(DerivIndex(0, 1, 2))


def test_compose_bad_axis():
    with pytest.raises(ValueError):
        compose_index(3, DerivIndex(0, 1, 2))
    with pytest.raises(ValueError):
        axes_to_index((1, 4), 3)


def test_multiindex_roundtrip_exhaustive():
    for d in all_indices():
        mu = index_to_multiindex(d)
        assert len(mu) == d.n
        assert sum(mu) == d.k
        canon = multiindex_to_index(mu, d.n)
        assert index_to_multiindex(canon) == mu
        assert canon == canonical_slot(d)


def test_canonical_slot_properties():
    for d in all_indices():
        c = canonical_slot(d)
        assert c.k == d.k and c.n == d.n
        assert list(index_to_axes(c)) == sorted(index_to_axes(d))
        assert canonical_slot(c) == c
        assert c.h <= d.h


def test_canonical_classes_partition_slots():
    for n in range(1, 4):
        for k in range(5):
            classes = {}
            for h in range(1, slot_count(n, k) + 1):
                d = DerivIndex(k, h, n)
                classes.setdefault(index_to_multiindex(d), []).append(d)
            for mu, members in classes.items():
                rep = multiindex_to_index(mu, n)
                assert rep == min(members, key=lambda d: d.h)
                assert all(canonical_slot(d) == rep for d in members)


def test_multiindex_validation():
    with pytest.raises(ValueError):
        multiindex_to_index((1, 2), 3)
    with pytest.raises(ValueError):
        multiindex_to_index((-1, 1), 2)


def test_exhaustive_sweep_is_fast():
    start = time.monotonic()
    count = 0
    for d in all_indices():
        axes_to_index(index_to_axes(d), d.n)
        canonical_slot(d)
        index_to_multiindex(d)
        count += 1
    elapsed = time.monotonic() - start
    assert count == sum(slot_count(n, k) for n in range(1, 4) for k in range(5))
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# truncated Taylor jets


def test_multi_indices_are_graded_prefixes():
    for n in (1, 2, 3):
        for order in range(5):
            monos = multi_indices(n, order)
            assert len(monos) == len(set(monos)) == sum(
                1 for mu in itertools.product(range(order + 1), repeat=n) if sum(mu) <= order)
            assert [sum(mu) for mu in monos] == sorted(sum(mu) for mu in monos)
            if order:
                lower = multi_indices(n, order - 1)
                assert monos[:len(lower)] == lower
        assert multi_indices(n, 0) == ((0,) * n,)
    assert multi_indices(2, 1) == ((0, 0), (1, 0), (0, 1))


def test_polynomial_jet_and_its_derivatives():
    # f = 2 + 3 x1^2 x2 - x2^3 at (0.5, -1): Taylor coefficients by hand
    f = Jet.polynomial([(2.0, (0, 0)), (3.0, (2, 1)), (-1.0, (0, 3))], (0.5, -1.0), 3)
    by_mono = dict(zip(multi_indices(2, 3), f.c))
    assert by_mono == {(0, 0): 2.25, (1, 0): -3.0, (0, 1): -2.25, (2, 0): -3.0,
                       (1, 1): 3.0, (0, 2): 3.0, (3, 0): 0.0, (2, 1): 3.0,
                       (1, 2): 0.0, (0, 3): -1.0}
    # d/dx1 d/dx2 f = 6 x1, as an order-1 jet: 3 + 6 (x1 - 0.5)
    assert f.derivative((1, 1), 1).c == [3.0, 6.0, 0.0]
    assert f.truncate(1).c == f.c[:3]


def test_jet_arithmetic_truncates_and_divides():
    x = Jet.variable(2.0, 1, 1, 3)
    square = x * x
    assert square.c == [4.0, 4.0, 1.0, 0.0]
    # (x^2) / x is x again, and 1 / x is the geometric series at 2
    assert (square / x).c == x.c
    assert (1.0 / x).c == [0.5, -0.25, 0.125, -0.0625]
    # mixed orders truncate to the lower one
    assert (square + x.truncate(1)).c == [6.0, 5.0]
    assert (3.0 * x + 1).c == [7.0, 3.0, 0.0, 0.0]
