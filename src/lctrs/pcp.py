"""Post correspondence problems as constrained rewrite systems.

Candidate index strings over 1..N are packed into naturals: the empty string
is 0 and i0 i1...ik maps to N*[i1...ik] + i0, a bijection for every N.  The
generated system unfolds a candidate number into both concatenations and
compares them constructor by constructor, ending in top (a match) or bot.
"""

from __future__ import annotations

from . import theory
from .rules import ConstrainedRule, Lctrs, Signature
from .terms import App, INT, Record, Sort, Term, Var, int_val

STRING = Sort("String")
PCP_SORT = Sort("PCP")


class PCPInstance(Record):
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, str], ...]):
        Record.__init__(self, pairs)
        if not self.pairs:
            raise ValueError("an instance needs at least one pair")
        for a, b in self.pairs:
            if not a or not b:
                raise ValueError("word pairs must be non-empty")
            if set(a + b) - {"0", "1"}:
                raise ValueError(f"words must be over 0/1: {a},{b}")
        if all(a == b for a, b in self.pairs):
            raise ValueError("some pair must have distinct words (instance is trivially solvable)")

    @property
    def size(self) -> int:
        return len(self.pairs)

    @classmethod
    def parse(cls, text: str) -> "PCPInstance":
        """Pairs separated by ';', components by ',': "1,101;10,00;011,11"."""
        pairs = []
        for chunk in text.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"malformed pair {chunk!r}")
            pairs.append((parts[0].strip(), parts[1].strip()))
        return cls(tuple(pairs))


def build_rp(instance: PCPInstance) -> Lctrs:
    """The test/alpha/beta system for one instance."""
    sig = Signature()
    sig.sorts["String"] = STRING
    sig.sorts["PCP"] = PCP_SORT
    e = sig.add_fun("e", [], STRING)
    s0 = sig.add_fun("s0", [STRING], STRING)
    s1 = sig.add_fun("s1", [STRING], STRING)
    start = sig.add_fun("start", [], PCP_SORT)
    top = sig.add_fun("top", [], PCP_SORT)
    bot = sig.add_fun("bot", [], PCP_SORT)
    test = sig.add_fun("test", [STRING, STRING, INT], PCP_SORT)
    alpha = sig.add_fun("alpha", [INT], STRING)
    beta = sig.add_fun("beta", [INT], STRING)

    n, m = Var("n", INT), Var("m", INT)
    x, y = Var("x", STRING), Var("y", STRING)
    digit = {"0": s0, "1": s1}

    def word(w: str, tail: Term) -> Term:
        out = tail
        for c in reversed(w):
            out = App(digit[c], (out,))
        return out

    rules = [
        ConstrainedRule(
            App(start),
            App(test, (App(alpha, (n,)), App(beta, (n,)), n)),
            theory.gt(n, 0),
        ),
        ConstrainedRule(App(test, (App(e), App(e), n)), App(top)),
        ConstrainedRule(
            App(test, (App(s0, (x,)), App(s0, (y,)), n)), App(test, (x, y, n))
        ),
        ConstrainedRule(
            App(test, (App(s1, (x,)), App(s1, (y,)), n)), App(test, (x, y, n))
        ),
        ConstrainedRule(App(test, (App(s0, (x,)), App(s1, (y,)), n)), App(bot)),
        ConstrainedRule(App(test, (App(s1, (x,)), App(s0, (y,)), n)), App(bot)),
        ConstrainedRule(App(test, (App(s0, (x,)), App(e), n)), App(bot)),
        ConstrainedRule(App(test, (App(s1, (x,)), App(e), n)), App(bot)),
        ConstrainedRule(App(test, (App(e), App(s0, (y,)), n)), App(bot)),
        ConstrainedRule(App(test, (App(e), App(s1, (y,)), n)), App(bot)),
        ConstrainedRule(App(alpha, (int_val(0),)), App(e)),
        ConstrainedRule(App(beta, (int_val(0),)), App(e)),
    ]
    size = instance.size
    for i, (aw, bw) in enumerate(instance.pairs, start=1):
        guard = theory.conj(
            theory.eq(theory.add(theory.mul(size, m), i), n), theory.gt(n, 0)
        )
        rules.append(ConstrainedRule(App(alpha, (n,)), word(aw, App(alpha, (m,))), guard))
        rules.append(ConstrainedRule(App(beta, (n,)), word(bw, App(beta, (m,))), guard))
    return Lctrs(sig, tuple(rules))
