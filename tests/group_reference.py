"""A reference for the group tests, apart from group.gen_cells.  The factors,
the generators and the parameter order are written here case by case, as
they were before one cell rule served them all: subgroup_pairs and
param_slot order the parameters, factor_delta places each sign, mirror cell
and even-n square term by hand, and lie_gen sets its two cells."""

from dworklie import DworkError, MatF, RatFn
from dworklie.geometry import family_dims, pairing_form
from dworklie.linalg import pairing_defect


def subgroup_pairs(n):
    """Additive subgroup indices (i,j) in the fixed lexicographic order."""
    _, m, _ = family_dims(n)
    hi = (lambda i: n + 2 - i) if n % 2 else (lambda i: n + 1 - i)
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, hi(i) + 1)]


def param_slot(n, i):
    """Meaning of 1-based parameter index i: ("mult", a) or ("add", (a,b))."""
    d, m, _ = family_dims(n)
    if not 1 <= i <= d - 1:
        raise IndexError(f"parameter index {i} out of range for n={n}")
    if i <= m:
        return ("mult", i)
    return ("add", subgroup_pairs(n)[i - m - 1])


def factor_delta(n, i, gamma, ring):
    """The i-th one-parameter subgroup at gamma, minus the identity."""
    kind, idx = param_slot(n, i)
    gamma = gamma if isinstance(gamma, RatFn) else RatFn.of(ring, gamma)
    _, m, _ = family_dims(n)
    if kind == "mult":
        b = n + 2 - idx
        cells = [((idx, idx), gamma.inverse() - 1), ((b, b), gamma - 1)]
    else:
        a, b = idx
        ra, rb = n + 2 - b, n + 2 - a
        cells = [((a, b), gamma)]
        if (ra, rb) != (a, b):
            cells = [((a, b), gamma if n % 2 and b >= m + 1 else -gamma),
                     ((ra, rb), gamma)]
            if n % 2 == 0 and b == (n + 2) // 2:
                cells.append(((a, n + 2 - a), -(gamma * gamma) / 2))
    return MatF._of(ring, n + 1, n + 1, cells)


def lie_gen(n, a, b, ring):
    """Constant basis matrix g_ab; sparse two-cell (or one-cell) pattern."""
    _, m, _ = family_dims(n)
    if not (1 <= a <= m and a <= b <= 2 * m + 1 - a):
        raise IndexError(f"basis indices ({a},{b}) out of range for n={n}")
    M = MatF.zeros(ring, n + 1)
    M.set1(a, b, RatFn.of(ring, 1))
    ra, rb = n + 2 - b, n + 2 - a
    if (ra, rb) != (a, b):
        sign = 1 if (n % 2 and b >= m + 1) else -1
        M.set1(ra, rb, RatFn.of(ring, sign))
    if not pairing_defect(M.transpose(), pairing_form(ring, n)).is_zero:
        raise DworkError(f"basis matrix ({a},{b}) violates the pairing identity")
    return M
