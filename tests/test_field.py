"""The division guard and the primality test of prime fields.

Over Q a scalar is an ``int`` until a division leaves a remainder, and
``int / int`` is a float.  So every scalar division goes through the field's
``div`` method, and a true division ``/`` anywhere else in the package is a
bug waiting for an integral operand.

``PrimeField`` decides primality by deterministic Miller-Rabin, exact below
``field.PRIME_BOUND``, and refuses a p at or above it.
"""

import ast
import time
from pathlib import Path

import pytest

import qfab
from qfab.field import PRIME_BOUND, PrimeField, is_prime

PACKAGE = Path(qfab.__file__).parent


def _true_divisions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_true_division_appears_only_in_field():
    # the walk finds the divisions that field.div is built on
    assert _true_divisions(PACKAGE / "field.py")
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "field.py" for line in _true_divisions(path)]
    assert found == []


def test_primality_agrees_with_trial_division():
    want = [n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
            for n in range(20000)]
    assert [is_prime(n) for n in range(20000)] == want


# strong pseudoprimes to the prime bases up to 2, 7, 31 and 37: the last is
# caught only by the base 41
@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_strong_pseudoprimes_are_rejected(n):
    assert not is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
def test_large_primes_are_accepted_quickly(p):
    t0 = time.perf_counter()
    F = PrimeField(p)
    assert time.perf_counter() - t0 < 0.1
    assert F.characteristic == p and F(1, 2) * 2 == F.one


@pytest.mark.parametrize("p", [PRIME_BOUND, PRIME_BOUND + 2, 2 ** 89 - 1])
def test_prime_at_or_above_the_bound_is_refused(p):
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        PrimeField(p)


# the largest prime below the bound
BELOW_BOUND = 3_317_044_064_679_887_385_961_813


def test_below_bound_is_the_largest_prime_under_the_bound():
    assert BELOW_BOUND < PRIME_BOUND and is_prime(BELOW_BOUND)
    assert not any(is_prime(n) for n in range(BELOW_BOUND + 1, PRIME_BOUND))


@pytest.mark.parametrize("p", [2, 3, 2 ** 31 - 1, BELOW_BOUND])
def test_division_inverts_and_refuses_zero(p):
    F = PrimeField(p)
    for x in {1, 2, p // 2, p - 2, p - 1} - {0, p}:
        a = F.coerce(x)
        assert a * (F.one / a) == F.one
        assert a * (1 / a) == F.one  # the reflected division
        assert (a * a) / a == a
    for num in (F.one, 1):
        with pytest.raises(ZeroDivisionError, match="division by zero in F_p"):
            num / F.zero
    with pytest.raises(ZeroDivisionError, match="division by zero in F_p"):
        F.one / 0
