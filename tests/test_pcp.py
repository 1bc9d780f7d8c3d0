import itertools
import random

import pytest

from lctrs import theory
from lctrs.analysis import ccps
from lctrs.pcp import PCPInstance, build_rp
from lctrs.terms import Var, INT, variables

from tests.conftest import check_candidate, decode, encode_string

INSTANCE = PCPInstance.parse("1,101;10,00;011,11")


def test_encode_empty():
    assert encode_string([], 3) == 0
    assert decode(0, 3) == ()


def test_encode_paper_values():
    assert encode_string("3313", 3) == 102
    assert decode(102, 3) == (3, 3, 1, 3)
    assert encode_string("112", 3) == 22
    assert decode(22, 3) == (1, 1, 2)


def test_encode_out_of_range():
    with pytest.raises(ValueError):
        encode_string("104", 3)


def test_bijection():
    for size in range(1, 6):
        for n in range(0, 2001):
            assert encode_string(decode(n, size), size) == n


def test_instance_validation():
    with pytest.raises(ValueError):
        PCPInstance((("1", "1"), ("0", "0")))
    with pytest.raises(ValueError):
        PCPInstance((("1", ""),))
    with pytest.raises(ValueError):
        PCPInstance.parse("1,2;3")


def test_build_rp_rule_inventory():
    system = build_rp(INSTANCE)
    syms = system.signature.term_syms
    assert set(syms) == {"e", "s0", "s1", "start", "top", "bot", "test", "alpha", "beta"}
    lhs_names = [r.lhs.sym.name for r in system.rules]
    assert lhs_names.count("test") == 9
    assert lhs_names.count("alpha") == 1 + 3
    assert lhs_names.count("beta") == 1 + 3
    assert lhs_names.count("start") == 1


def test_build_rp_guards():
    system = build_rp(INSTANCE)
    n, m = Var("n", INT), Var("m", INT)
    guards = {
        repr(r.guard)
        for r in system.rules
        if r.lhs.sym.name == "alpha" and variables(r.lhs)
    }
    for i in (1, 2, 3):
        want = theory.conj(
            theory.eq(theory.add(theory.mul(3, m), i), n), theory.gt(n, 0)
        )
        assert repr(want) in guards


def test_build_rp_word_expansion():
    # first alpha word "1" gives s1(alpha(m)); beta word "101" nests three deep
    system = build_rp(INSTANCE)
    alpha_rules = [r for r in system.rules if r.lhs.sym.name == "alpha" and variables(r.lhs)]
    tops = {r.rhs.sym.name for r in alpha_rules}
    assert tops == {"s1", "s0"}
    beta1 = [
        r
        for r in system.rules
        if r.lhs.sym.name == "beta" and variables(r.lhs) and r.rhs.sym.name == "s1"
    ]
    assert any(
        r.rhs.args[0].sym.name == "s0" and r.rhs.args[0].args[0].sym.name == "s1"
        for r in beta1
    )


def brute_force_solution(instance, max_len=6):
    for length in range(1, max_len + 1):
        for w in itertools.product(range(1, instance.size + 1), repeat=length):
            alpha = "".join(instance.pairs[i - 1][0] for i in w)
            beta = "".join(instance.pairs[i - 1][1] for i in w)
            if alpha == beta:
                return w
    return None


def test_known_solution():
    w = brute_force_solution(INSTANCE)
    assert w is not None
    n = encode_string(list(w), INSTANCE.size)
    assert check_candidate(INSTANCE, n) == "solution"


def test_random_candidates_agree_with_string_comparison():
    rng = random.Random(5)
    instances = [
        INSTANCE,
        PCPInstance.parse("0,00;1,11;01,1"),
        PCPInstance.parse("10,1;0,01"),
    ]
    for _ in range(60):
        instance = rng.choice(instances)
        n = rng.randint(1, 500)
        w = decode(n, instance.size)
        alpha = "".join(instance.pairs[i - 1][0] for i in w)
        beta = "".join(instance.pairs[i - 1][1] for i in w)
        expected = "solution" if alpha == beta else "non_solution"
        assert check_candidate(instance, n) == expected, (instance, n, w)


def test_rp_has_the_start_critical_pair(solver):
    system = build_rp(INSTANCE)
    pairs = ccps(system, solver)
    starts = [
        p
        for p in pairs
        if p.left.sym.name == "test" and p.right.sym.name == "test" and p.left != p.right
    ]
    assert starts, "the start rule self-overlay must be present"
    rec = starts[0]
    assert rec.left.args[0].sym.name == "alpha"
    assert rec.overlay
    n_left, n_right = rec.left.args[2], rec.right.args[2]
    assert n_left != n_right, "two independent candidate numbers"
    assert rec.constraint == theory.conj(theory.gt(n_left, 0), theory.gt(n_right, 0))
