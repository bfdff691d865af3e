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


# sl2 at p = 3 with its complement letter shifted by a subalgebra letter: it
# validates, and psi, comparison and phi-r-balance FAIL on it.
SL2S_P3 = """
algebra sl2s-p3
prime 3
generator h even
generator e even
generator f even
bracket h e : 0 2 0
bracket h f : 2 0 1
bracket e f : 1 1 0
pmap h : 1 0 0
pmap f : 0 0 1
split borel : h e
representation triv borel 1
repbasis triv : 0
representation wt1 borel 1
repbasis wt1 : 0
repaction wt1 h : 1
"""


# four two-letter inputs with a toral letter (x^[p] = x); format each with
# the prime p.  tor: h and t abelian and both toral.
TOR = """
algebra tor-p{p}
prime {p}
generator h even
generator t even
pmap h : 1 0
pmap t : 0 1
split hline : h
representation triv hline 1
repbasis triv : 0
representation wt1 hline 1
repbasis wt1 : 0
repaction wt1 h : 1
"""


# b2: [h, e] = e with h toral; not unimodular, as str(ad h) = 1
B2 = """
algebra b2-p{p}
prime {p}
generator h even
generator e even
bracket h e : 0 1
pmap h : 1 0
split hline : h
representation triv hline 1
repbasis triv : 0
representation wt1 hline 1
repbasis wt1 : 0
repaction wt1 h : 1
"""


# bx: b2 with its nilpotent letter odd, [b, x] = x
BX = """
algebra bx-p{p}
prime {p}
generator b even
generator x odd
bracket b x : 0 1
pmap b : 1 0
split bline : b
representation triv bline 1
repbasis triv : 0
"""


# b2s: the same two-dimensional algebra as b2 in another basis,
# [h, f] = h + f with f^[p] = f: the toral subalgebra letter h brackets the
# toral complement letter f back onto h
B2S = """
algebra b2s-p{p}
prime {p}
generator h even
generator f even
bracket h f : 1 1
pmap h : 1 0
pmap f : 0 1
split hline : h
representation triv hline 1
repbasis triv : 0
representation wt1 hline 1
repbasis wt1 : 0
repaction wt1 h : 1
"""


def gl12(p: int) -> str:
    """gl(1|2) at the prime p from its matrix units E_ij, i, j in {0, 1, 2},
    with a trivial rep on the splits even (gl(1) + gl(2)) and borel (upper
    triangular).

    Index 0 is even and 1, 2 are odd, so E_ij has parity p(i) + p(j).  The
    bracket is the supercommutator and the p-map the matrix p-th power:
    E_ii to itself, the other even units (E_12, E_21) to 0.  dim u(g) is
    p^5 * 2^4: 3,888 at p = 3.
    """
    par = (0, 1, 1)
    units = [(i, j) for i in range(3) for j in range(3)]
    name = {u: f"E{u[0]}{u[1]}" for u in units}
    deg = {u: (par[u[0]] + par[u[1]]) % 2 for u in units}
    lines = [f"algebra gl12-p{p}", f"prime {p}"]
    lines += [f"generator {name[u]} {'odd' if deg[u] else 'even'}" for u in units]
    for a, (i, j) in enumerate(units):
        for k, l in units[a:]:
            # [E_ij, E_kl] = d_jk E_il - (-1)^(|E_ij| |E_kl|) d_li E_kj
            coords = dict.fromkeys(units, 0)
            if j == k:
                coords[i, l] += 1
            if l == i:
                coords[k, j] -= -1 if deg[i, j] * deg[k, l] else 1
            if any(coords.values()):
                body = " ".join(str(c) for c in coords.values())
                lines.append(f"bracket {name[i, j]} {name[k, l]} : {body}")
    for i in range(3):
        lines.append(f"pmap {name[i, i]} : {' '.join('1' if u == (i, i) else '0' for u in units)}")
    splits = {
        "even": [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)],
        "borel": [u for u in units if u[0] <= u[1]],
    }
    for sname, gens in splits.items():
        lines.append(f"split {sname} : {' '.join(name[u] for u in gens)}")
        lines.append(f"representation triv{sname} {sname} 1")
        lines.append(f"repbasis triv{sname} : 0")
    return "\n".join(lines) + "\n"
