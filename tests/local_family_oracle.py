"""``Fraction`` evaluation of the local model, the oracle of the integer path.

These are the plain ``Fraction`` forms of ``Phi_j``, the frame change
``dz_j/dz_k``, the rescaled section and the ratio constant ``f_jk`` (with
its own sign bookkeeping), the propagation of a point across one node in
``Fraction`` arithmetic, its fold along the path to every component, one
path at a time, and the sampler that carries each draw by that fold and
tests each special point of a component by its own ``!=``; and the
degenerate-chart rule, read off that fold one marking at a time.  Every
section it reads is its own fold from the marking's home coordinate, and
``t^beta_j`` its own product over the far sides of the nodes, so no value
here rests on ``local_family``'s sections or exponent vectors.
``local_family`` computes the same values as integer numerator/denominator
pairs: it carries a point as reduced pairs along one walk from the start
and tests genericity by one set lookup of those pairs per component.  Draws
go through ``local_family._rand_rational``, so a test that patches it
patches both samplers alike.
"""

from fractions import Fraction

from strata0 import local_family as lf
from strata0.local_family import INF, DenominatorVanishes, PoleHit


def _propagate(x, b_near, b_far, t):
    """Coordinate of a point across one node: ``b_far + t / (x - b_near)``."""
    if x is INF:
        return b_far
    if x == b_near:
        if t == 0:
            raise DenominatorVanishes("point sits exactly on a fully degenerate node")
        return INF
    return b_far + t / (x - b_near)


def carry(chart, start, x, v):
    """The point at ``x`` on component ``start``, on component ``v``:
    ``_propagate`` folded along ``chart.path(start, v)``."""
    path = chart.path(start, v)
    for a, b in zip(path, path[1:]):
        x = _propagate(x, chart.node_coords[a][b], chart.node_coords[b][a], chart.t(a, b))
    return x


def spread(chart, start, x):
    """The point at ``x`` on component ``start``, on each component, by
    :func:`carry`, one path at a time."""
    return tuple(carry(chart, start, x, v) for v in range(chart.tree.num_vertices))


def section(chart, i, v):
    """Marking ``i``'s section on component ``v``: its coordinate on its home
    component, carried to ``v``."""
    home = chart.home_vertex(i)
    return carry(chart, home, chart.mark_coords[home][i], v)


def sections(chart):
    """Each marking's section on every component, marking ``i`` at index
    ``i - 1``."""
    return [tuple(section(chart, i, v) for v in range(chart.tree.num_vertices))
            for i in range(1, chart.sig.n + 1)]


def beta_monomial(chart, j):
    """``t^beta_j``: at each node ``t`` to the power ``max(0, d + k_B)``, ``B``
    the markings on the side of the node holding component ``j``."""
    val = Fraction(1)
    for u, v in chart.tree.edges:
        side = chart.tree.far_marks(u, v) if v in chart.path(j, u) else chart.tree.far_marks(v, u)
        val *= chart.t(u, v) ** max(0, chart.sig.d + sum(chart.sig.kappa[i - 1] for i in side))
    return val


def degenerate_chart_message(chart):
    """The refusal of a chart whose node parameters put a marking on a node,
    or ``None``: the first marking, in increasing order, whose section is at
    INF on a component other than its home, and its first such component."""
    for i in range(1, chart.sig.n + 1):
        home = chart.home_vertex(i)
        for j, x in enumerate(spread(chart, home, chart.mark_coords[home][i])):
            if x is INF and j != home:
                return (f"degenerate chart: the node parameters put marking {i} "
                        f"on the node toward component {j}")
    return None


def sample_curve_point(chart, rng, base=0, check_vertices=None):
    check = range(chart.tree.num_vertices) if check_vertices is None else list(check_vertices)
    all_marks = sections(chart)
    for _ in range(lf._SAMPLE_DRAWS):
        try:
            z = spread(chart, base, lf._rand_rational(rng))
        except DenominatorVanishes:
            continue
        if all(
            z[j] is not INF
            and all(z[j] != a[j] for a in all_marks)
            and z[j] not in chart.node_coords[j].values()
            for j in check
        ):
            return z
    raise DenominatorVanishes("no valid sample point found; chart too degenerate")


def evaluate_phi(chart, j, point):
    z = point[j]
    if z is INF:
        raise PoleHit("sample point at infinity; use a finite draw")
    val = Fraction(1)
    for i in range(1, chart.sig.n + 1):
        a = section(chart, i, j)
        if a is INF:
            continue
        base = z - a
        if base == 0:
            raise PoleHit(f"sample coordinate equals a_({j},{i})")
        val *= base ** chart.sig.kappa[i - 1]
    return val


def frame_jacobian(chart, j, k, point):
    if j == k:
        return Fraction(1)
    path = chart.path(j, k)
    jac = Fraction(1)
    for a, b in zip(path, path[1:]):
        zb = point[b]
        if zb is INF:
            raise PoleHit("frame change through a point at infinity")
        diff = zb - chart.node_coords[b][a]
        if diff == 0:
            raise PoleHit("frame change degenerate at a node")
        jac *= -chart.t(a, b) / diff ** 2
    return jac


def adjacent_ratio_constant(chart, j, k):
    """With ``J`` the markings on the ``j`` side of the node,

        f_{jk} = (-1)^(d + sum_F k_i)
                 * prod_{i in F, in J} (a_{ji} - b_{jk})^{k_i}
                 / prod_{i in F, not in J} (a_{ki} - b_{kj})^{k_i},

    where F drops the markings at infinity in either chart."""
    on_j = chart.tree.far_marks(k, j)  # NoSuchEdge unless adjacent
    kappa = chart.sig.kappa
    b_jk = chart.node_coords[j][k]
    b_kj = chart.node_coords[k][j]
    num = Fraction(1)
    den = Fraction(1)
    ksum = chart.sig.d
    for i in range(1, chart.sig.n + 1):
        a_j, a_k = section(chart, i, j), section(chart, i, k)
        if a_j is INF or a_k is INF:
            continue
        ksum += kappa[i - 1]
        if i in on_j:
            base = a_j - b_jk
            if base == 0:
                raise DenominatorVanishes(f"a_({j},{i}) hits the node coordinate")
            num *= base ** kappa[i - 1]
        else:
            base = a_k - b_kj
            if base == 0:
                raise DenominatorVanishes(f"a_({k},{i}) hits the node coordinate")
            den *= base ** kappa[i - 1]
    sign = -1 if ksum % 2 else 1
    return sign * num / den


def ratio_constant(chart, j, k):
    if j == k:
        return Fraction(1)
    path = chart.path(j, k)
    val = Fraction(1)
    for a, b in zip(path, path[1:]):
        val *= adjacent_ratio_constant(chart, a, b)
    return val


def section_in_frame(chart, j, point, frame):
    phi = evaluate_phi(chart, j, point)
    jac = frame_jacobian(chart, j, frame, point)
    return beta_monomial(chart, j) * phi * jac ** chart.sig.d
