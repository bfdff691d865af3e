"""Definition texts for inputs past the catalog (the scale ladder).

Test-only: the catalog's ten entries stay its contract.
"""

OSP12 = """
algebra osp12-p{p}
prime {p}
generator h even
generator e even
generator f even
generator x odd
generator y odd
bracket h e : 0 2 0 0 0
bracket h f : 0 0 -2 0 0
bracket e f : 1 0 0 0 0
bracket h x : 0 0 0 1 0
bracket h y : 0 0 0 0 -1
bracket e y : 0 0 0 -1 0
bracket f x : 0 0 0 0 -1
bracket x x : 0 2 0 0 0
bracket y y : 0 0 -2 0 0
bracket x y : 1 0 0 0 0
pmap h : 1 0 0 0 0
split borel : h e x
split even : h e f
representation triv borel 1
repbasis triv : 0
representation etriv even 1
repbasis etriv : 0
"""


def osp12(p: int) -> str:
    """osp(1|2) at the prime p, with a trivial rep on the splits borel and even.

    dim u(g) is p^3 * 4: 108 at p = 3 and 500 at p = 5.
    """
    return OSP12.format(p=p)


# sl2 at p = 3 split at the line of h alone: e and f are both complement
# letters and their bracket h is not, so the antipode of a complement
# monomial such as e f splits differently in the split's left and right
# engines, and only the left one gives the dual map
SL2_HLINE_P3 = """
algebra sl2h-p3
prime 3
generator h even
generator e even
generator f even
bracket h e : 0 2 0
bracket h f : 0 0 -2
bracket e f : 1 0 0
pmap h : 1 0 0
split hline : h
representation triv hline 1
repbasis triv : 0
representation wt1 hline 1
repbasis wt1 : 0
repaction wt1 h : 1
"""


# one even and three odd letters: the split at the line of h leaves three
# odd complement letters (the catalog has at most two), so the odd
# partials' signs count over more than one other letter
ODD3_P3 = """
algebra odd3-p3
prime 3
generator h even
generator x odd
generator y odd
generator z odd
bracket h x : 0 1 0 0
bracket h y : 0 0 1 0
pmap h : 1 0 0 0
split hline : h
split zero :
representation triv hline 1
repbasis triv : 0
"""
