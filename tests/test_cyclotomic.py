"""Exact arithmetic in Z[w] and its canonical form."""

import pytest

from cppforge.cyclotomic import CycInt


def test_canonical_form_kills_all_ones():
    # 1 + w + w^2 = 0 in Z[w], p = 3
    assert CycInt(3, (1, 1, 1)).is_zero()
    assert CycInt(3, (5, 5, 5)).is_zero()


def test_canonicalization_last_entry_zero():
    z = CycInt(3, (4, 7, 2))
    assert z.counts[-1] == 0
    assert z.counts == (2, 5, 0)


def test_as_int():
    z = CycInt(5, (9, 0, 0, 0, 0))
    assert z == 9
    assert z.as_int() == 9
    assert CycInt(5, (1, 2, 0, 0, 0)).as_int() is None


def test_addition_subtraction():
    a = CycInt(3, (1, 2, 0))
    b = CycInt(3, (0, 1, 2))
    assert (a + b).counts == CycInt(3, (1, 3, 2)).counts
    assert (a - a).is_zero()


def test_multiplication_root_of_unity_relation():
    # w * w^2 = w^3 = 1 for p = 3
    w = CycInt(3, (0, 1, 0))
    w2 = CycInt(3, (0, 0, 1))
    assert (w * w2).as_int() == 1
    # (1 + w)(1 + w^2) = 1 + w + w^2 + 1 = 1
    one_w = CycInt(3, (1, 1, 0))
    one_w2 = CycInt(3, (1, 0, 1))
    assert (one_w * one_w2).as_int() == 1


def test_conjugation_and_norm():
    w = CycInt(5, (0, 1, 0, 0, 0))
    assert w.conj() == CycInt(5, (0, 0, 0, 0, 1))
    # |w|^2 = w * w^-1 = 1
    assert w.norm2() == 1
    # |1 - w|^2 = (1-w)(1-w^4) = 2 - w - w^4: integer only after reduction?
    z = CycInt(5, (1, -1, 0, 0, 0))
    sq = z * z.conj()
    # norm of 1-w over Z[w_5]: product over conjugates is 5, pairwise
    # |1-w|^2 is 2 - w - w^4 which is not rational
    assert sq.as_int() is None


def test_scalar_multiplication():
    z = CycInt(3, (1, 2, 0))
    assert (3 * z).counts == (3, 6, 0)


def test_mixed_order_rejected():
    with pytest.raises(TypeError):
        CycInt(3, (1, 0, 0)) + CycInt(5, (1, 0, 0, 0, 0))
