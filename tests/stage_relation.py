"""The paper's stage relation, kept as a reference for `melonic.class_of`.

[G] = f_a [R] + g_a [R/e] + h_a [R - e] applied to the last stage of a
construction, one stage at a time: contraction-deletion on the largest
banana of the last stage (lowest index on ties), after three rewrites
that need no branching.  A lone stage is a product of banana classes; a
single-banana stage merges into its parent; a stage on a size-1 banana
is spliced into its parent; an all-ones stage is a repeated edge
subdivision.  Recursive, so deep constructions need a raised recursion
limit; exponential in the worst case, so keep the inputs small.

The relation only adds and multiplies, so it runs in either of two
rings: polynomials in S (`class_by_stages`, the reference), or ints mod
the prime P at one given s (`class_by_stages_mod_p`), where every family
polynomial is its value at s.  Two different classes of degree at most E
agree at a random s with probability at most E / P (Schwartz-Zippel).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from melonclass import families as fam
from melonclass.melonic import MelonicConstruction, Stage
from melonclass.poly import ClassPoly, ONE, eval_int, mul

P = 2 ** 61 - 1


def _relation(times: Callable[[Any, Any], Any], one: Any, s2: Any,
              family: Callable[[Callable[[int], Any]], Callable[[int], Any]]
              ) -> Callable[[tuple[Stage, ...]], Any]:
    """The stage relation over one ring: its product, its 1, its S + 2,
    and `family`, which takes a family of `families` (`f_poly`, ...) to
    its values in the ring.  Each call has its own memo."""
    f, g, h, b = map(family, (fam.f_poly, fam.g_poly, fam.h_poly,
                              fam.b_poly))
    memo: dict[tuple[Stage, ...], Any] = {}

    def rec(stages: tuple[Stage, ...]) -> Any:
        hit = memo.get(stages)
        if hit is not None:
            return hit

        n = len(stages)
        if n == 1:
            result = one
            for a in stages[0][0]:
                result = times(result, b(a))
        else:
            tup, p, k = stages[-1]
            ptup, pp, pk = stages[p - 1]
            if len(tup) == 1:
                # a single banana in the last stage only widens the parent
                # slot
                a = tup[0]
                merged = Stage(
                    ptup[:k - 1] + (ptup[k - 1] + a - 1,) + ptup[k:], pp, pk)
                result = rec(stages[:p - 1] + (merged,) + stages[p:n - 1])
            elif ptup[k - 1] == 1:
                # the string replaces a lone edge: splice it into the parent
                # and shift the later slots of the parent past it
                spliced = Stage(ptup[:k - 1] + tup + ptup[k:], pp, pk)
                later = tuple(
                    Stage(st.bananas, p, st.parent_banana + len(tup) - 1)
                    if st.parent_stage == p and st.parent_banana > k else st
                    for st in stages[p:n - 1])
                result = rec(stages[:p - 1] + (spliced,) + later)
            elif all(a == 1 for a in tup):
                # a string of r 1-bananas subdivides an edge r-1 times
                result = rec(stages[:-1])
                for _ in range(len(tup) - 1):
                    result = times(s2, result)
            else:
                m = max(range(len(tup)), key=lambda i: (tup[i], -i))
                a = tup[m]
                t_one = stages[:-1] + (
                    Stage(tup[:m] + (1,) + tup[m + 1:], p, k),)
                t_del = stages[:-1] + (Stage(tup[:m] + tup[m + 1:], p, k),)
                # the splice branch leaves the parent slot at least two
                # edges
                shrunk = Stage(ptup[:k - 1] + (ptup[k - 1] - 1,) + ptup[k:],
                               pp, pk)
                t_cut = stages[:p - 1] + (shrunk,) + stages[p:n - 1]
                side = one
                for i, ai in enumerate(tup):
                    if i != m:
                        side = times(side, b(ai))
                result = (times(f(a), rec(t_one))
                          + times(g(a), rec(t_del))
                          + times(times(side, h(a)), rec(t_cut)))

        memo[stages] = result
        return result

    return rec


# one memo for every polynomial call, as the classes do not depend on s
_by_polynomials = _relation(mul, ONE, fam.S_PLUS_2, lambda family: family)


def class_by_stages(c: MelonicConstruction) -> ClassPoly:
    """The class of c by the stage relation."""
    return ClassPoly(_by_polynomials(c.stages))


def class_by_stages_mod_p(c: MelonicConstruction, s: int) -> int:
    """The class of c at S = s, mod P, by the stage relation over ints
    mod P."""
    def family(poly_of: Callable[[int], Any]) -> Callable[[int], int]:
        return functools.cache(lambda a: eval_int(poly_of(a), s) % P)

    rec = _relation(lambda x, y: x * y % P, 1, (s + 2) % P, family)
    return rec(c.stages) % P
