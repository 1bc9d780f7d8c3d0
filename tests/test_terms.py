import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lctrs.terms import (
    App,
    BOOL,
    EPSILON,
    FunSym,
    INT,
    LhsIndex,
    Sort,
    TermError,
    Var,
    alpha_key,
    apply_subst,
    fresh_name,
    int_val,
    match,
    parallel,
    positions,
    rename_away,
    replace_at,
    root_sort,
    sort_of,
    subterm_at,
    unify,
    variables,
)
from lctrs import theory
from lctrs.rewriting import redexes

PCP = Sort("PCP")
STRING = Sort("String")
U = Sort("U")

f2 = FunSym("f", (U, U), U, "term")
g1 = FunSym("g", (U,), U, "term")
g2 = FunSym("g2", (U, U), U, "term")
a = App(FunSym("a", (), U, "term"))
b = App(FunSym("b", (), U, "term"))
c = App(FunSym("c", (), U, "term"))
d = App(FunSym("d", (), U, "term"))
x, y, z = Var("x", U), Var("y", U), Var("z", U)
yp = Var("y'", U)

test_sym = FunSym("test", (STRING, STRING, INT), PCP, "term")
e_str = App(FunSym("e", (), STRING, "term"))


def test_sort_of_variable():
    assert sort_of(Var("x", INT)) == INT


def test_sort_of_pcp_signature():
    t = App(test_sym, (e_str, e_str, int_val(0)))
    assert sort_of(t) == PCP


def test_sort_of_rejects_sort_clash():
    bad = App(theory.ADD, (int_val(1), theory.bool_val(True)))
    with pytest.raises(TermError):
        sort_of(bad)


def _all_positions(t):
    """Every position of t, variable positions included, in preorder."""
    if isinstance(t, Var):
        return [EPSILON]
    return [EPSILON] + [(i, *p) for i, s in enumerate(t.args, start=1) for p in _all_positions(s)]


def test_positions_variable_has_no_function_positions():
    assert positions(x) == []


def test_positions_function_filter():
    assert positions(App(f2, (a, y))) == [(EPSILON, App(f2, (a, y))), ((1,), a)]
    # derived by enumerating all subterms and keeping the non-variable ones
    t = App(f2, (App(g1, (x,)), y))
    expected = [p for p in _all_positions(t) if not isinstance(subterm_at(t, p), Var)]
    assert [p for p, _ in positions(t)] == expected == [EPSILON, (1,)]


def test_replace_at_single():
    assert replace_at(App(f2, (a, b)), {(1,): c}) == App(f2, (c, b))


def test_replace_at_empty_is_identity():
    t = App(f2, (a, b))
    assert replace_at(t, {}) is t


def test_replace_at_parallel():
    assert replace_at(App(f2, (a, b)), {(1,): c, (2,): d}) == App(f2, (c, d))


def test_replace_at_rejects_overlap():
    t = App(f2, (App(g1, (a,)), b))
    with pytest.raises(TermError):
        replace_at(t, {(1,): c, (1, 1): d})


def test_replace_at_rejects_sort_clash():
    t = App(test_sym, (e_str, e_str, int_val(0)))
    with pytest.raises(TermError, match="sort"):
        replace_at(t, {(3,): a})
    with pytest.raises(TermError, match="sort"):
        replace_at(App(f2, (a, b)), {(2,): Var("n", INT)})


def test_replace_subterm_roundtrip():
    t = App(f2, (App(g1, (a,)), b))
    out = replace_at(t, {(1, 1): c, (2,): d})
    assert subterm_at(out, (1, 1)) == c
    assert subterm_at(out, (2,)) == d


def test_apply_simple():
    assert apply_subst({Var("x", INT): int_val(0)}, Var("x", INT)) == int_val(0)


def test_apply_structural():
    sigma = {x: App(g1, (z,)), y: yp}
    assert apply_subst(sigma, App(f2, (x, y))) == App(f2, (App(g1, (z,)), yp))


def test_apply_identity():
    t = App(f2, (x, y))
    assert apply_subst({}, t) is t


def test_match_basic():
    sigma = match(App(f2, (x, y)), App(f2, (a, b)))
    assert sigma == {x: a, y: b}


def test_match_nonlinear_clash():
    assert match(App(f2, (x, x)), App(f2, (a, b))) is None


def test_match_swap_then_apply():
    pat = App(g2, (x, y))
    sub = App(g2, (y, x))
    sigma = match(pat, sub)
    assert sigma == {x: y, y: x}
    assert apply_subst(sigma, pat) == sub


def test_unify_trivial():
    assert unify([(a, a)]) == {}


def test_unify_occurs_check():
    assert unify([(x, App(g1, (x,)))]) is None


def test_unify_example():
    lhs = App(f2, (x, y))
    rhs = App(f2, (App(g1, (z,)), yp))
    sigma = unify([(lhs, rhs)])
    assert sigma == {x: App(g1, (z,)), y: yp}
    assert apply_subst(sigma, lhs) == apply_subst(sigma, rhs)
    # generality: another unifier factors through sigma via matching
    tau = {x: App(g1, (a,)), y: b, z: a, yp: b}
    assert match(apply_subst(sigma, lhs), apply_subst(tau, lhs)) is not None


def test_fresh_name_primes():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x'"
    assert fresh_name("x", {"x", "x'"}) == "x''"


def test_rename_away():
    ren = rename_away([x, y], [x, z])
    assert ren[x] == Var("x'", U)
    assert y not in ren  # no collision, keeps its name


def test_alpha_key_variants():
    t1 = App(f2, (x, App(g1, (x,))))
    t2 = App(f2, (y, App(g1, (y,))))
    assert alpha_key([t1]) == alpha_key([t2])
    assert alpha_key([t1]) != alpha_key([App(f2, (x, App(g1, (y,))))])


# --- property tests ---------------------------------------------------------

SYMS = [f2, g1, g2]
CONSTS = [a, b, c]
VARS = [x, y, z]


def term_strategy(max_depth=3, vars_allowed=True):
    leaves = st.sampled_from(CONSTS + (VARS if vars_allowed else []))

    def extend(children):
        return st.one_of(
            st.tuples(st.just(f2), children, children).map(lambda t: App(t[0], (t[1], t[2]))),
            st.tuples(st.just(g2), children, children).map(lambda t: App(t[0], (t[1], t[2]))),
            children.map(lambda u: App(g1, (u,))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=200)
@given(term_strategy(), term_strategy(vars_allowed=False))
def test_match_soundness(pattern, subject):
    sigma = match(pattern, subject)
    if sigma is not None:
        assert apply_subst(sigma, pattern) == subject


@settings(max_examples=300)
@given(term_strategy(), term_strategy())
def test_unify_soundness_and_idempotence(s, t):
    sigma = unify([(s, t)])
    if sigma is None:
        return
    left, right = apply_subst(sigma, s), apply_subst(sigma, t)
    assert left == right
    for v, u in sigma.items():
        assert apply_subst(sigma, u) == u  # idempotent


@settings(max_examples=100)
@given(term_strategy())
def test_produced_position_sets_are_parallel(t):
    walked = positions(t)
    pos = [p for p, _ in walked]
    assert pos == sorted(pos) == [p for p in _all_positions(t) if not isinstance(subterm_at(t, p), Var)]
    assert all(sub is subterm_at(t, p) for p, sub in walked)
    leaves = {p for p in pos if not any(q != p and q[: len(p)] == p for q in pos)}
    assert all(parallel(p, q) for p in leaves for q in leaves if p != q)


# --- the left-hand-side index ----------------------------------------------------

def test_lhs_index_filters_by_symbols_and_variables():
    lhss = [App(f2, (a, x)), App(f2, (b, y)), App(g1, (x,)), App(f2, (x, x))]
    index = LhsIndex(lhss)
    assert index.unifiable(App(f2, (a, c))) == [0, 3]  # the index ignores repeated variables
    assert index.unifiable(App(f2, (z, c))) == [0, 1, 3]  # z stands for any subterm
    assert index.generalizations(App(f2, (z, c))) == [3]  # a rigid z meets only variables
    assert index.unifiable(z) == [0, 1, 2, 3]
    assert index.generalizations(App(g1, (App(f2, (a, b)),))) == [2]
    assert index.unifiable(c) == [] and LhsIndex([]).unifiable(z) == []


def test_lhs_index_walks_deep_terms_without_recursion():
    def tower(bottom, depth):
        t = bottom
        for _ in range(depth):
            t = App(g1, (t,))
        return t

    index = LhsIndex([tower(x, 2), tower(x, 5000), App(f2, (x, y)), tower(a, 5000)])
    assert index.unifiable(tower(b, 5000)) == [0, 1]
    assert index.generalizations(tower(a, 5000)) == [0, 1, 3]
    assert index.generalizations(tower(z, 6000)) == [0, 1]
    assert index.unifiable(App(g1, (z,))) == [0, 1, 3]  # z skips the rest of each tower
    assert index.unifiable(z) == [0, 1, 2, 3]


@st.composite
def index_cases(draw):
    """Left-hand sides and a query over a random small signature."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    syms = [FunSym(f"s{i}", (U,) * n, U, "term") for i, n in enumerate(arities)] + [a.sym]
    leaves = st.sampled_from([a, b] + VARS)

    def apply(children):
        return st.sampled_from(syms).flatmap(
            lambda f: st.tuples(*[children] * f.arity).map(lambda args: App(f, args))
        )

    terms = st.recursive(leaves, apply, max_leaves=6)
    lhss = draw(st.lists(apply(terms), max_size=8))
    return lhss, draw(terms)


@settings(max_examples=200)
@given(index_cases())
def test_lhs_index_retrieves_every_unifier_and_matcher_in_order(case):
    lhss, t = case
    index = LhsIndex(lhss)
    unifiable, generalizations = index.unifiable(t), index.generalizations(t)
    assert unifiable == sorted(set(unifiable)) and generalizations == sorted(set(generalizations))
    for i, lhs in enumerate(lhss):
        apart = apply_subst(rename_away(variables(lhs), variables(t)), lhs)
        if unify([(apart, t)]) is not None:
            assert i in unifiable
        if match(lhs, t) is not None:
            assert i in generalizations


# --- hash-consing ----------------------------------------------------------------

def same_structure(s, t) -> bool:
    """Structural equality read off names alone, independent of how terms are stored."""
    if isinstance(s, Var) or isinstance(t, Var):
        return isinstance(s, Var) and isinstance(t, Var) and (s.name, s.sort.name) == (t.name, t.sort.name)

    def sym(f):
        return f.name, f.kind, f.result_sort.name, tuple(sort.name for sort in f.arg_sorts)

    return (
        sym(s.sym) == sym(t.sym)
        and len(s.args) == len(t.args)
        and all(same_structure(u, v) for u, v in zip(s.args, t.args))
    )


SORT_NAMES = st.sampled_from(["A", "B"])


def described_term(children):
    """A term description: ("var", name, sort) or ("app", name, argument
    sorts, result sort, kind, argument descriptions)."""
    return st.lists(children, max_size=2).flatmap(
        lambda args: st.tuples(
            st.just("app"),
            st.sampled_from("fg"),
            st.tuples(*[SORT_NAMES] * len(args)),
            SORT_NAMES,
            st.sampled_from(["term", "theory"]),
            st.just(tuple(args)),
        )
    )


TERM_DESCRIPTIONS = st.recursive(
    st.tuples(st.just("var"), st.sampled_from("xy"), SORT_NAMES), described_term, max_leaves=6
)


def build(d):
    if d[0] == "var":
        return Var(d[1], Sort(d[2]))
    _, name, arg_sorts, result, kind, args = d
    return App(FunSym(name, tuple(map(Sort, arg_sorts)), Sort(result), kind), tuple(build(u) for u in args))


@settings(max_examples=200)
@given(TERM_DESCRIPTIONS, TERM_DESCRIPTIONS)
def test_terms_are_equal_exactly_when_their_structure_agrees(d1, d2):
    s, t = build(d1), build(d2)
    assert build(d1) is s and build(d2) is t  # equal fields give the same object
    assert (s == t) == (s is t) == same_structure(s, t) == (d1 == d2)
    if s == t:
        assert hash(s) == hash(t)


def test_variables_and_symbols_differ_by_sort():
    assert Var("x", INT) != Var("x", BOOL)
    assert Var("x", INT) is Var("x", INT)
    assert theory.EQ != theory.EQB and theory.EQ.name == theory.EQB.name
    assert theory.eq(Var("x", INT), Var("y", INT)) is theory.eq(Var("x", INT), Var("y", INT))
    assert App(theory.EQ, (x, y)) != App(theory.EQB, (x, y))


@pytest.mark.parametrize(
    "value, field",
    [(INT, "name"), (g1, "kind"), (g1, "arg_sorts"), (x, "name"), (x, "sort"), (a, "sym"), (a, "args")]
    + [(x, "vars"), (a, "vars")],
)
def test_setting_a_field_raises(value, field):
    old = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, old)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is old


# --- the variable set each term carries ------------------------------------------

def walked_variables(t) -> set:
    """The variables of t, found by walking it."""
    if isinstance(t, Var):
        return {t}
    return set().union(*(walked_variables(u) for u in t.args))


def substituted(sigma, t):
    """sigma applied to t, rebuilding every node."""
    if isinstance(t, Var):
        return sigma.get(t, t)
    return App(t.sym, tuple(substituted(sigma, u) for u in t.args))


def replaced(t, assignments):
    """Simultaneous replacement at parallel positions by a recursive walk
    that visits every node with a replaced position below it."""

    def go(s, here):
        if here in assignments:
            return assignments[here]
        if isinstance(s, Var) or not any(p[: len(here)] == here for p in assignments):
            return s
        return App(s.sym, tuple(go(u, here + (i,)) for i, u in enumerate(s.args, start=1)))

    return go(t, EPSILON)


DESCRIBED_VARS = [Var(name, Sort(sort)) for name in "xy" for sort in "AB"]


@settings(max_examples=200)
@given(TERM_DESCRIPTIONS)
def test_a_term_carries_the_variables_a_walk_finds(d):
    t = build(d)
    assert variables(t) is t.vars and t.vars == walked_variables(t)
    assert isinstance(t.vars, frozenset)


@settings(max_examples=200)
@given(TERM_DESCRIPTIONS, st.dictionaries(st.sampled_from(DESCRIBED_VARS), TERM_DESCRIPTIONS.map(build), max_size=3))
def test_substitution_returns_a_term_it_misses_as_it_is(d, sigma):
    t = build(d)
    got = apply_subst(sigma, t)
    assert got == substituted(sigma, t)
    if t.vars.isdisjoint(sigma):
        assert got is t


@st.composite
def replacements(draw):
    """A term and replacements of its own root sorts at parallel positions."""
    t = draw(st.one_of(term_strategy(), TERM_DESCRIPTIONS.map(build)))
    chosen: list = []
    candidates = draw(st.permutations(_all_positions(t)))
    if draw(st.booleans()):
        candidates.sort(key=len, reverse=True)  # the deepest first: many parallel positions
    for p in candidates[: draw(st.integers(0, len(candidates)))]:
        if all(parallel(p, q) for q in chosen):
            chosen.append(p)
    sorts = [root_sort(subterm_at(t, p)) for p in chosen]
    return t, {p: draw(st.sampled_from([Var("r", s), App(FunSym("k", (), s, "term"))])) for p, s in zip(chosen, sorts)}


@settings(max_examples=200)
@given(replacements())
@example((App(f2, (App(g1, (a,)), App(g2, (x, App(g1, (b,)))))), {(1, 1): c, (2, 2, 1): d, (2, 1): y}))
def test_replacement_rebuilds_what_a_full_walk_rebuilds(case):
    t, assignments = case
    assert replace_at(t, assignments) is replaced(t, assignments)


def test_deep_terms_are_walked_without_recursion():
    """variables, the function positions, the redexes under them,
    replacement at the deepest position and the occurs check on a 3 000-deep
    term, built in code since the parser still recurses."""
    t = x
    for _ in range(3000):
        t = App(g1, (t,))
    assert variables(t) == {x}
    walk = positions(t)
    assert [p for p, _ in walk] == [(1,) * k for k in range(3000)] and walk[-1][1] == App(g1, (x,))

    def innermost(sub):  # an oracle with one redex, at g1(x)
        return (("rule", {}),) if sub == App(g1, (x,)) else ()

    assert redexes(t, innermost, (1,) * 5) == [((1,) * 2999, "rule", {})]
    deepest = (1,) * 3000
    swapped = replace_at(t, {deepest: y})
    assert subterm_at(swapped, deepest) is y and variables(swapped) == {y}
    assert unify([(x, t)]) is None


def test_value_symbols_are_checked_once_made():
    with pytest.raises(TermError, match="bad symbol kind"):
        FunSym("f", (), U, "constant")
    with pytest.raises(TermError, match="must be a constant"):
        FunSym("7", (INT,), INT, "value")
