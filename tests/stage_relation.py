"""The paper's stage relation, kept as a reference for `melonic.class_of`.

[G] = f_a [R] + g_a [R/e] + h_a [R - e] applied to the last stage of a
construction, one stage at a time: contraction-deletion on the largest
banana of the last stage (lowest index on ties), after three rewrites
that need no branching.  A lone stage is a product of banana classes; a
single-banana stage merges into its parent; a stage on a size-1 banana
is spliced into its parent; an all-ones stage is a repeated edge
subdivision.  Recursive, so deep constructions need a raised recursion
limit; exponential in the worst case, so keep the inputs small.
"""

from __future__ import annotations

from melonclass import families as fam
from melonclass.melonic import MelonicConstruction, Stage
from melonclass.poly import ClassPoly, IntPoly, ONE, mul

_memo: dict[tuple[Stage, ...], IntPoly] = {}


def _class_rec(key: tuple[Stage, ...]) -> IntPoly:
    hit = _memo.get(key)
    if hit is not None:
        return hit

    stages = key
    n = len(stages)
    if n == 1:
        result = ONE
        for a in stages[0][0]:
            result = mul(result, fam.b_poly(a))
    else:
        tup, p, k = stages[-1]
        ptup, pp, pk = stages[p - 1]
        if len(tup) == 1:
            # a single banana in the last stage only widens the parent slot
            a = tup[0]
            merged = Stage(ptup[:k - 1] + (ptup[k - 1] + a - 1,) + ptup[k:],
                           pp, pk)
            result = _class_rec(stages[:p - 1] + (merged,) + stages[p:n - 1])
        elif ptup[k - 1] == 1:
            # the string replaces a lone edge: splice it into the parent and
            # shift the later slots of the parent past it
            spliced = Stage(ptup[:k - 1] + tup + ptup[k:], pp, pk)
            later = tuple(
                Stage(st.bananas, p, st.parent_banana + len(tup) - 1)
                if st.parent_stage == p and st.parent_banana > k else st
                for st in stages[p:n - 1])
            result = _class_rec(stages[:p - 1] + (spliced,) + later)
        elif all(a == 1 for a in tup):
            # a string of r 1-bananas subdivides an edge r-1 times
            result = mul(fam._pow(fam.S_PLUS_2, len(tup) - 1),
                         _class_rec(stages[:-1]))
        else:
            m = max(range(len(tup)), key=lambda i: (tup[i], -i))
            a = tup[m]
            t_one = stages[:-1] + (Stage(tup[:m] + (1,) + tup[m + 1:], p, k),)
            t_del = stages[:-1] + (Stage(tup[:m] + tup[m + 1:], p, k),)
            # the splice branch leaves the parent slot at least two edges
            shrunk = Stage(ptup[:k - 1] + (ptup[k - 1] - 1,) + ptup[k:], pp, pk)
            t_cut = stages[:p - 1] + (shrunk,) + stages[p:n - 1]
            side = ONE
            for i, ai in enumerate(tup):
                if i != m:
                    side = mul(side, fam.b_poly(ai))
            result = (mul(fam.f_poly(a), _class_rec(t_one))
                      + mul(fam.g_poly(a), _class_rec(t_del))
                      + mul(mul(side, fam.h_poly(a)), _class_rec(t_cut)))

    _memo[key] = result
    return result


def class_by_stages(c: MelonicConstruction) -> ClassPoly:
    """The class of c by the stage relation."""
    return ClassPoly(_class_rec(c.stages))
