"""Singular values of an open bidiagonal block on one band, in O(N).

The values of a block whose cells are (p, q) or (q, p), switching at most
once, with at most two entries off the band, solve the band's secular
equation (_BandChain); models.Bidiagonal.singular_values takes them from here
for blocks of models.BAND_MIN_CELLS cells and more, and imports this module
the first time it needs it.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as P

from .models import _band_value

_HALF_PI = 0.5 * math.pi
_EPS = float(np.finfo(float).eps)
# Entries this close, relatively, count as one band value: the mirrored cells
# of a wall are built by different roundings, which leave them up to 8 ulps
# apart for |eta| <= 0.6 and 200 near pi/4.  Moving a run of entries by a
# factor 1 + delta moves the values by about delta relatively.
_SAME = 2.0**-46
# The grid of psi that brackets every root of a band block (_BandChain): the
# phases are smooth on it whatever N, so that cubic interpolation on it starts
# Newton within about 1e-9 of each root.  Its ends stay inside the band.
_GRID = np.pi * np.arange(130) / 129
_GRID[[0, -1]] = np.pi * 2.0**-10 / 129, np.pi * (1.0 - 2.0**-10 / 129)


def _band_chain(diagonal: np.ndarray, bonds: np.ndarray):
    """An open block's Golub-Kahan entries |d_0|, |e_0|, |d_1|, ..., |d_(N-1)|
    times 2^-shift, their band values p and q times the same, the masks of
    the entries within _SAME of each, the indices of the entries off the
    band and those of the entries after which two equal ones meet (the
    switch), and shift; None unless at most two entries lie off the band, all
    nonzero, and the cells switch between (p, q) and (q, p) at most once.
    Those spoil at most five neighbour pairs, so one of six pairs apart
    holds p and q."""
    chain = np.empty(2 * len(diagonal) - 1)
    chain[0::2], chain[1::2] = np.abs(diagonal), np.abs(bonds)
    last = len(chain) - 2
    if last < 1:
        return None
    for i in sorted({min(max(i, 0), last) for i in (1, 3, last // 2 - 1, last // 2 + 1,
                                                    last - 3, last - 1)}):
        p, q = float(chain[i]), float(chain[i + 1])
        if not (p > 0.0 and q > 0.0):
            continue
        on_p, on_q = chain == p, chain == q
        band = on_p | on_q
        if len(chain) - np.count_nonzero(band) > 2:
            on_p = np.abs(chain - p) <= _SAME * p
            on_q = on_p if p == q else np.abs(chain - q) <= _SAME * q
            band = on_p | on_q
            if len(chain) - np.count_nonzero(band) > 2:
                continue
        off = np.flatnonzero(~band).tolist()
        if not all(chain[j] > 0.0 for j in off):
            continue
        switch = []
        if p != q:
            # a cell is (p, q) where p sits on an even entry: the cells turn
            # where two equal entries meet, or across entries off the band
            # where those around them break the parity
            switch = np.flatnonzero((on_p[1:] == on_p[:-1]) & band[1:] & band[:-1]).tolist()
            turns = len(switch)
            for j in off:
                k = j + 2 if j + 1 in off else j + 1
                if j - 1 not in off and j > 0 and k <= last + 1:
                    turns += (on_p[j - 1] != on_p[k]) == (k == j + 1)
            if turns > 1:
                continue
        # a power of 2 brings the band near 1, exactly, so that nothing
        # underflows or overflows on the way
        shift = math.frexp(max(p, q))[1]
        return np.ldexp(chain, -shift), math.ldexp(p, -shift), math.ldexp(q, -shift), on_p, on_q, off, switch, shift
    return None


def _poly_at(a: list, t: np.ndarray):
    """a (floats from the constant up) at t by Horner's rule; a constant stays a float."""
    out = a[-1]
    for x in a[-2::-1]:
        out = out * t + x
    return out


def _with_deriv(a: np.ndarray) -> tuple:
    """A polynomial and its derivative, as coefficient lists for _poly_at."""
    return a.tolist(), P.polyder(a).tolist()


def _complex(parts: tuple, t: np.ndarray, sin: np.ndarray):
    """R(t) + i sin(psi) I(t) and its derivative in psi, as real parts, from
    parts = ((R, R'), (I, I')) (_with_deriv); an I' of zero adds nothing."""
    (re, dre), (im, dim) = parts
    im_t = _poly_at(im, t)
    dim_t = (1.0 - t) * im_t
    if any(dim):
        dim_t = dim_t + (t * (2.0 - t)) * _poly_at(dim, t)
    return _poly_at(re, t), sin * im_t, sin * _poly_at(dre, t), dim_t


class _BandChain:
    """The values of an open block on one band (_band_chain), in O(N).

    The Golub-Kahan form of h^T is the symmetric tridiagonal of 2N sites
    with zero diagonal and the entries b_1 .. b_(2N-1) of _band_chain on the
    bonds between them; its eigenvalues +-sigma are h's values (Golub and
    Kahan).  On (p, q) cells a solution of T x = lam x is R cos(theta) on
    each site, and crossing a bond b whose neighbours are b' turns theta by
    A_b = arg(b + b' e^(i phi)), lam^2 = p^2 + q^2 + 2 p q cos(phi), with
    A_p + A_q = phi.  A site next to an entry off the band or at the switch
    breaks this: the irregular sites form clusters, through which the
    recurrence runs explicitly.  The sign changes of x count the eigenvalues
    above lam (Sturm), and every phase is kept lifted so that it counts them
    too.  This is the secular equation of the two-periodic Toeplitz
    tridiagonal (Kulkarni, Schmidt and Tsui, Linear Algebra Appl. 297, 63
    (1999); Yueh, Appl. Math. E-Notes 5, 66 (2005)), with its corners and
    its wall as transfer steps between two uniform runs.

    A solution runs from each free end (x_0 = 0), through that end's
    cluster and its run, to the wall, the one cluster away from both ends
    (a block with two keeps dqds); a block without one is matched at the
    last regular site.  They meet where the Wronskian
    |alpha| cos(X) + |beta| cos(Y) vanishes, X = theta_L + theta_R + arg(alpha),
    Y = theta_L - theta_R + arg(beta), with alpha and beta from the wall's
    explicit steps and |beta| < |alpha|.  So each root solves X = +-Z mod
    2 pi, Z = arccos(-(|beta| / |alpha|) cos(Y)), in one of two families that
    alternate; both fall with slope near the bond count however much the
    wall reflects, which a phase of the whole chain would not.  Without a
    wall beta = 0 and Z = pi / 2.

    The unknown is psi = pi - phi, sigma = _band_value at psi / 2, and
    every phase is whole quarter turns plus a remainder, so that a root near
    the lower edge keeps its relative digits.  The ends and the wall, which
    do not depend on the runs, are _BandEnds.
    """

    def __init__(self, chain, p, q, on_p, on_q, off, switch, shift):
        self.p, self.q, self.n, self.shift = p, q, (len(chain) + 1) // 2, shift
        self.chain, self.off = chain, off
        sites = len(chain) + 1
        # site k sits between bonds k - 1 and k, and bond j is entry j of the
        # chain padded with the free bonds 0 and 2N past the ends (x_0 =
        # x_(2N+1) = 0): the partners of the end entries, where those are on the band
        first, last = q if on_p[0] else p, q if on_p[-1] else p
        self.bond = np.concatenate([[first], chain, [last]])
        self.bond_p = np.concatenate([[first == p], on_p, [last == p]])
        self.bond_q = np.concatenate([[first == q], on_q, [last == q]])
        clusters = []
        for k in sorted({k for j in off for k in (j + 1, j + 2)} | {j + 2 for j in switch}):
            if clusters and clusters[-1][1] == k - 1:
                clusters[-1][1] = k
            else:
                clusters.append([k, k])
        left = clusters[0][1] if clusters and clusters[0][0] == 1 else 0
        right = clusters[-1][0] if clusters and clusters[-1][1] == sites and clusters[-1][0] > left else sites + 1
        inner = [c for c in clusters if c[0] > left and c[1] < right]
        self.ends = None   # two clusters away from the ends: not solved here
        if len(inner) > 1:
            return
        # the wall: sites a + 1 .. c, between bonds a and c on the band
        a, c = (inner[0][0] - 1, inner[0][1]) if inner else (right - 1, right - 1)
        self.ends = _band_ends(p, q, tuple(self._bonds(0, left + 1)) if left else (),
                               tuple(self._bonds(right - 1, sites + 1)[::-1]) if right <= sites else (),
                               tuple(self._bonds(a, c + 1)))
        # each run as its whole quarter turns and the factors of a_p and psi
        # (_BandEnds.basis): n_p A_p + n_q A_q = whole - (n_p - n_q) a_p - n_q psi
        self.turns = (0, 2) if p > q else (2, 0) if p < q else (1, 1)
        self.runs = []
        for lo, hi in ((left, a), (c + 1, right)):
            n_p = int(np.count_nonzero(self.bond_p[lo:hi]))
            n_q = hi - lo - n_p
            self.runs.append((n_p * self.turns[0] + n_q * self.turns[1], n_p - n_q, n_q))

    def _bonds(self, lo: int, hi: int) -> list:
        """The bonds lo .. hi - 1, p or q where they are on the band."""
        return [self.p if self.bond_p[j] else self.q if self.bond_q[j] else float(self.bond[j]) for j in range(lo, hi)]

    def _families(self, psi: np.ndarray, lift: np.ndarray | None):
        """X as (quarter turns, remainder), Z (None without a wall), their
        derivatives and the lifted arg(alpha); the lift continues `lift`,
        the values at the previous points; on the grid the ends cached all."""
        a, da, ((turns_l, rem_l, d_l), (turns_r, rem_r, d_r)), wall = (
            self.ends.grid if psi is _GRID else self.ends.at(psi, lift))
        (whole_l, skew_l, q_l), (whole_r, skew_r, q_r) = self.runs
        # theta_L + theta_R
        turns = turns_l + turns_r + (whole_l + whole_r)
        rem = (rem_l + rem_r) - ((skew_l + skew_r) * a + (q_l + q_r) * psi)
        drem = (d_l + d_r) - ((skew_l + skew_r) * da + (q_l + q_r))
        if wall is None:
            # alpha = 1 - e^(2 i A) = 2 sin(A) e^(i (A - pi/2)) and beta = 0
            if self.ends.wall[0] == self.p:
                return turns + self.turns[0] - 1.0, rem - a, None, drem - da, None, None
            return turns + self.turns[1] - 1.0, rem - (psi - a), None, drem - (1.0 - da), None, None
        lift, arg, size, (b_re, b_im), (dlog_re, dlog_im), (db_re, db_im) = wall
        # w = -(|beta| / |alpha|) cos(Y) = -Re(beta e^(i spread)) / |alpha|,
        # spread = theta_L - theta_R, from beta itself: beta may vanish
        spread = ((turns_l - turns_r + (whole_l - whole_r)) * _HALF_PI + (rem_l - rem_r)
                  - ((skew_l - skew_r) * a + (q_l - q_r) * psi))
        d_spread = (d_l - d_r) - ((skew_l - skew_r) * da + (q_l - q_r))
        cos_s, sin_s = np.cos(spread), np.sin(spread)
        w = np.minimum(np.maximum((b_im * sin_s - b_re * cos_s) / size, -1.0), 1.0)
        # (beta e^(i spread))' / e^(i spread)
        db_re, db_im = db_re - d_spread * b_im, db_im + d_spread * b_re
        dw = (db_im * sin_s - db_re * cos_s) / size - w * dlog_re
        z = np.arccos(w)
        return (turns + 4.0 * lift, rem + arg, z, drem + dlog_im,
                -dw / np.maximum(np.sin(z), _EPS), arg + (2.0 * math.pi) * lift)

    def values(self) -> np.ndarray | None:
        """The block's values, descending, or None where a self-check fails.

        Root m solves X = pi m + Z_m, Z_m = Z for even m and pi - Z for odd m:
        f_m = X - pi m - Z_m falls with m and psi, and is >= 0 up to m = top,
        the sum of the whole turns of X - Z and of X + Z.  The roots in the
        band are the m from top at its upper edge to top at its lower edge,
        each bracketed on the grid (_GRID) and started by cubic interpolation
        of psi(f_m) there; safeguarded Newton ends each, in one step as a
        rule.  At most one value may lie off the band: it is |det h| over
        the others, summed as logarithms, so that it keeps its relative
        digits down to underflow.  The values must be distinct, and their
        squares must sum to |h|_F^2, from h's own entries, within 4 N eps."""
        n, walled = self.n, len(self.ends.wall) > 1
        grid = _GRID
        turns, rem, z, dx, dz, lift = self._families(grid, None)
        for _ in range(2):
            x = turns * _HALF_PI + rem
            if np.ndim(dx) == 0:
                dx = np.broadcast_to(dx, grid.shape)
            if walled:
                top = np.floor((x - z) * (0.5 / math.pi)) + np.floor((x + z) * (0.5 / math.pi))
            else:
                top = np.floor(x * (1.0 / math.pi) - 0.5)
            if not (math.isfinite(top[0]) and math.isfinite(top[-1])):
                return None
            m = np.arange(int(top[-1]) + 1, int(top[0]) + 1)
            off_band = n - len(m)
            edge = math.pi / (8 * n + 8)
            if off_band in (0, 1) or edge >= grid[0] or grid is not _GRID:
                break
            # on a long chain the roots nearest the edges may lie between them
            # and the grid: take the grid to within 1/8 of their spacing
            ends = self._families(np.array([edge, math.pi - edge]), lift[[0, -1]] if walled else None)
            grid = np.concatenate([[edge], grid, [math.pi - edge]])
            turns, rem, z, dx, dz, lift = (
                None if end is None else np.concatenate(
                    [np.broadcast_to(end, 2)[:1], np.broadcast_to(inner, _GRID.shape), np.broadcast_to(end, 2)[1:]])
                for inner, end in zip((turns, rem, z, dx, dz, lift), ends))
        if off_band not in (0, 1):
            return None
        above = len(top) - np.searchsorted(top[::-1], m)   # the first point with top < m
        below = above - 1
        if walled:
            odd = m & 1
            sign, target = 1.0 - 2.0 * odd, 2 * (m + odd)
            f_lo = x[below] - _HALF_PI * target - sign * z[below]
            f_hi = x[above] - _HALF_PI * target - sign * z[above]
            slope_lo, slope_hi = dx[below] - sign * dz[below], dx[above] - sign * dz[above]
            lift = lift[below]
        else:
            target = 2 * m + 1
            shift = _HALF_PI * target
            f_lo, f_hi, slope_lo, slope_hi = x[below] - shift, x[above] - shift, dx[below], dx[above]
        # psi(f) between the two grid points, cubic in f with the slopes 1 / f'
        lo, hi = grid[below], grid[above]
        span = f_hi - f_lo
        u = f_lo / -span
        psi = lo + (hi - lo) * u * u * (3.0 - 2.0 * u) + (u - u * u) * span * ((1.0 - u) / slope_lo - u / slope_hi)
        for _ in range(64):
            turns, rem, z, dx, dz, lift = self._families(psi, lift)
            f = (turns - target) * _HALF_PI + rem
            if walled:
                f, dx = f - sign * z, dx - sign * dz
            delta = f / dx
            step = psi - delta
            # keep each root's bracket, and bisect where Newton leaves it
            if np.max(np.abs(delta) / step) <= 1e-9 and np.all((step - lo) * (step - hi) <= 0.0):
                psi = step
                break
            lo, hi = np.where(f > 0.0, psi, lo), np.where(f > 0.0, hi, psi)
            psi = np.where((step - lo) * (step - hi) <= 0.0, step, 0.5 * (lo + hi))
        else:
            return None
        # psi, and so sigma, descends as m ascends
        # sqrt(p p) is p exactly: a rounded width would move every value the
        # same way, and the value off the band by N times as much
        sigma = _band_value(abs(self.p - self.q), 2.0 * math.sqrt(self.p * self.q), 0.5 * psi)
        if len(sigma) != n - off_band:
            return None
        if off_band:
            # log |det h|: the diagonal's entries on p and on q, and those off it
            on_p, on_q = np.count_nonzero(self.bond_p[1::2]), np.count_nonzero(self.bond_q[1::2] & ~self.bond_p[1::2])
            log_det = math.fsum([on_p * math.log(self.p), on_q * math.log(self.q)]
                                + [math.log(self.chain[j]) for j in self.off if j % 2 == 0])
            out = math.exp(log_det - math.fsum(np.log(sigma).tolist()))
            sigma = np.append(out, sigma) if out > self.p + self.q else np.append(sigma, out)
        frobenius = float(np.dot(self.chain, self.chain))
        if not (np.all(sigma[1:] < sigma[:-1])
                and abs(float(np.dot(sigma, sigma)) - frobenius) <= 4.0 * n * _EPS * frobenius):
            return None
        return np.ldexp(sigma, self.shift) if self.shift else sigma


@functools.lru_cache(maxsize=64)
def _band_ends(p: float, q: float, left: tuple, right: tuple, wall: tuple) -> "_BandEnds":
    """The _BandEnds of a band, free ends' clusters and wall.  A sweep over N at
    one eta meets the same ones at every N, and evaluates them on the grid
    only once."""
    return _BandEnds(p, q, left, right, wall)


class _BandEnds:
    """The parts of a band block's phases that do not depend on its runs
    (see _BandChain): a_p with A_p = l pi/2 - a_p, the phases at the last
    sites of the clusters at the free ends, and the wall's alpha and beta.
    All are polynomials in t = 1 + cos(phi) = 2 sin(psi / 2)^2 and sin(psi),
    built once: lam^2 = (p - q)^2 + 2 p q t, lam e^(i A_b) = (b - b') + b' t
    + i b' sin(psi), and sin(psi)^2 = t (2 - t).  The recurrence keeps
    x_j / lam (or lam z_j) on every other site, so that lam enters only as
    lam^2.  Their values on the grid are kept."""

    def __init__(self, p: float, q: float, left: tuple, right: tuple, wall: tuple):
        self.p, self.q, self.wall = p, q, wall
        self.lam2 = [(p - q) ** 2, 2.0 * p * q]
        self.clusters = tuple(self._cluster(list(bonds)) if bonds else None for bonds in (left, right))
        if len(wall) > 1:
            self.alpha, self.beta = self._wall(list(wall))
        self.grid = self.at(_GRID, None)

    def _partner(self, b: float) -> float:
        return self.q if b == self.p else self.p

    def _cluster(self, bonds: list) -> tuple:
        """The phase at the last site of a free end's cluster of k sites,
        theta = atan2(Y(t), sin(psi) X(t)), as the pair (Y, X) of _complex and
        the pairs of polynomials whose product is negative at each node: from
        x_0 = 0 and x_1 = 1, with lam cos A_b and lam sin A_b on the last bond b."""
        prev, cur, nodes = np.zeros(1), np.ones(1), []
        for j in range(1, len(bonds)):
            grown = P.polymul(cur, self.lam2) if j % 2 == 0 else cur
            prev, cur = cur, P.polysub(grown, bonds[j - 1] * prev) / bonds[j]
            if j < len(bonds) - 1 and len(cur) > 1:
                nodes.append((prev.tolist(), cur.tolist()))
        b, o = bonds[-1], self._partner(bonds[-1])
        y = P.polysub(P.polymul(prev, [b - o, o]), P.polymul(cur, self.lam2) if (len(bonds) - 1) % 2 else cur)
        return (_with_deriv(y), _with_deriv(o * prev)), nodes

    def _wall(self, wall: list) -> tuple:
        """alpha and beta of the wall as pairs (R, I) of polynomials in t, for
        R(t) + i sin(psi) I(t): from z_0 = 1 and z_1 = e^(i A_a) on bond a
        through the wall's sites, alpha = z_c - z_(c+1) e^(i A_c) and beta =
        z_c - z_(c+1) e^(-i A_c) on bond c, each times a positive power of
        lam."""
        def times(u, v):
            return (P.polysub(P.polymul(u[0], v[0]), P.polymul([0.0, 2.0, -1.0], P.polymul(u[1], v[1]))),
                    P.polyadd(P.polymul(u[0], v[1]), P.polymul(u[1], v[0])))

        def bloch(b):
            o = self._partner(b)
            return np.array([b - o, o]), np.array([o])

        prev, cur = (np.ones(1), np.zeros(1)), bloch(wall[0])
        for j in range(1, len(wall)):
            grown = cur if j % 2 else tuple(P.polymul(part, self.lam2) for part in cur)
            prev, cur = cur, tuple(P.polysub(g, wall[j - 1] * before) / wall[j] for g, before in zip(grown, prev))
        if (len(wall) - 1) % 2 == 0:
            prev = tuple(P.polymul(part, self.lam2) for part in prev)
        turn = bloch(wall[-1])
        return tuple(tuple(_with_deriv(P.polysub(a, b)) for a, b in zip(prev, times(cur, bond)))
                     for bond in (turn, (turn[0], -turn[1])))

    def basis(self, psi: np.ndarray):
        """t, sin(psi), a_p and da_p/dpsi = dA_p/dphi (A_q = phi - A_p)."""
        p, q = self.p, self.q
        c = np.sin(0.5 * psi)
        t, sin = (2.0 * c) * c, np.sin(psi)
        if p == q:
            return t, sin, 0.5 * psi, 0.5
        cos_p = (p - q) + q * t
        a = np.arctan2((-q) * sin, cos_p) if p > q else np.arctan2(q * sin, -cos_p)
        return t, sin, a, 1.0 - p * cos_p / (self.lam2[0] + self.lam2[1] * t)

    @staticmethod
    def _end(cluster: tuple | None, t: np.ndarray, sin: np.ndarray):
        """The lifted phase (quarter turns, remainder, d/dpsi) at the last site
        of a free end's cluster (_cluster), or -pi/2 at x_0 = 0."""
        if cluster is None:
            return -1.0, 0.0, 0.0
        y, x, dy, dx = _complex(cluster[0], t, sin)
        rem = np.arctan2(y, x)
        count = sum((_poly_at(a, t) * _poly_at(b, t) < 0.0) for a, b in cluster[1])
        return 2.0 * (count - np.floor(rem / math.pi + 0.5)), rem, (x * dy - y * dx) / (x * x + y * y)

    def at(self, psi: np.ndarray, lift: np.ndarray | None):
        """a_p, da_p/dpsi, both ends' phases (_end) and, with a wall, (lift,
        arg(alpha), |alpha|, beta, alpha'/alpha, beta'), with lift the whole
        turns that continue `lift`, or psi's own order on a grid."""
        t, sin, a, da = self.basis(psi)
        ends = tuple(self._end(cluster, t, sin) for cluster in self.clusters)
        if len(self.wall) == 1:
            return a, da, ends, None
        a_re, a_im, da_re, da_im = _complex(self.alpha, t, sin)
        b_re, b_im, db_re, db_im = _complex(self.beta, t, sin)
        size2 = a_re * a_re + a_im * a_im
        arg = np.arctan2(a_im, a_re)
        if lift is None:
            # psi ascends: no step of arg(alpha) is a whole turn
            lift = np.concatenate([[0.0], -np.cumsum(np.round(np.diff(arg) * (0.5 / math.pi)))])
        else:
            lift = np.round((lift - arg) * (0.5 / math.pi))
        return a, da, ends, (lift, arg, np.sqrt(size2), (b_re, b_im),
                             ((a_re * da_re + a_im * da_im) / size2, (a_re * da_im - a_im * da_re) / size2),
                             (db_re, db_im))


def band_values(diagonal: np.ndarray, bonds: np.ndarray) -> np.ndarray | None:
    """The values of an open block with these entries, descending, or None
    (see models.Bidiagonal._band_values)."""
    # a value that is not finite fails the self-checks
    with np.errstate(all="ignore"):
        entries = _band_chain(diagonal, bonds)
        chain = _BandChain(*entries) if entries is not None else None
        return chain.values() if chain is not None and chain.ends is not None else None
