"""Damped Newton solver for -Delta v = K e^{2(S+v)} - 2 pi sum(beta).

The unknown is the smooth remainder v of the log-conformal factor
u = S + v on the unit flat torus; K is bounded with negative upper bound,
which makes the Newton linearization -Delta + (-2K e^{2u}) positive
definite, so every inner solve is a preconditioned conjugate-gradient
iteration on a definite operator.

The Newton state is kept as samples: v, and beside it the samples lv of
-Delta v. The loop starts from a half spectrum v^ (the padded n/4
solution, or the transform of v0 or of the default guess) with
v = irfft2(v^) and lv = irfft2(k2 v^); after that -Delta v is never
recomputed from samples, so the round-off floor eps * (pi n)^2 ||v|| of a
re-transformed real-space state does not arise (at n = 256 it would
already exceed the default tolerance). A step d comes out of CG with its
-Delta, ld, read off quantities CG already holds (below), whose round-off
is about eps max(W) |d| rather than eps (pi n)^2 |d|; lv only accumulates
t ld, so an Armijo trial is v + t d, lv + t ld, e^{2u} and F, with no
transform.

One operator evaluates the residual and the Jacobian's weight W; the
public ``residual`` and ``jacobian_apply`` and the Newton loop all use
it. The inner CG works on samples and applies the Jacobian -Delta + W,
but gets -Delta p without a transform: the preconditioner
solve (k2 + c) z^ = r^, with the shift c below, gives
-Delta z = r - c z exactly, and p is a linear recurrence in z, so -Delta p
follows the same recurrence. After CG the loop reads -Delta x = b - r - W x
off CG's recurrence residual r. One CG iteration therefore costs
exactly two transforms, rfft2(r) for the preconditioner and irfft2(z^) for
z, and a solve from a given start spectrum costs 2 more, for v and lv.

The loop keeps only the 8 n-by-n arrays it cannot rebuild, which its
inner solves and Armijo trials reuse, so no step allocates an n-by-n
array: v, lv, W (over e^{2u}) and F, CG's p, lp and x, and z^ (n(n + 2)
doubles). S is not among them: the operator holds its terms, the cached
kernels, and each residual sweep forms a row block of S in the block of
e^{2u} it writes (one product per atom, outside CG). CG solves in place
on its right-hand side -F, so F's array becomes CG's r; b = -F is rebuilt
afterwards from lv and K e^{2u} = W / -2, which is exact, since scaling by
a power of two commutes with rounding.
z, A p and -Delta x live in w, the first n^2 doubles of z^'s buffer,
which ``grids.irfft2`` may write while it reads z^. The symbol k2
of -Delta is held as its two 1-D factors, and CG forms 1/(k2 + c) a row
block at a time. At n = 1024 the warm solve's tracemalloc peak is 64.7 MiB,
at n = 512 16.6 MiB.

Between two transforms or two reductions, the elementwise work runs as one
sweep over the row blocks of ``grids._blocks``, 2^15 elements each
(256 KiB; 32 rows at n = 1024, one block at n <= 128), each block
finished while it is in cache instead of every pass streaming every
n-by-n operand through memory (loop tiling; Wolf & Lam, PLDI 1991). The
sweeps are CG's, the Armijo trial (v + t d, lv + t ld, e^{2u}, F, ||F||^2
and sup |F| at once, so the loop top recomputes neither), the step writing
W and -F over e^{2u} and F, and the step's -Delta d read off CG's
residual. An inner product is the per-block np.multiply(a, b, out=tmp).sum()
partials combined pairwise in a binary tree; at a power-of-two n numpy's
pairwise sum splits the whole array at the same points, so every iterate,
count and area is that of whole-array passes, bit for bit. The near-node
test test_coarse_start_nests_an_atom_the_coarse_on_node_test_refuses
depends on it: its default-guess solve ends 8% under tol on F's round-off
floor, and reductions in another order (einsum) tip it into NonConvergence.

CG stops when its recurrence residual r has ||r||_2 <= max(1e-6 ||b||_2,
tol/2), with b = -F and tol the Newton tolerance. After a full step d,
F(v + d) = -r + O(|d|^2) and sup |r| <= ||r||_2, so once ||r||_2 <= tol/2
a further CG iteration only lowers a residual the Newton test already
accepts; when the quadratic term is above tol/2, the loop takes one more
Newton step, as it would anyway. This is the inexact-Newton stop of
Dembo, Eisenstat & Steihaug (SIAM J. Numer. Anal. 1982) with no tuned
forcing constant. It moved no Newton count on the cone and ladder solves
measured; only where F's round-off floor nears tol (an atom within about
1e-3 of a cell of a node) can it cost a Newton step. It binds on the
last step, whose right-hand side is already near tol: at
n = 1024 the fine level's third step takes 1 CG iteration instead of 5,
and the fine level makes 22 transforms (25 more at n/4, 25 at n/16 and
36 at n/64).

The preconditioner is the spectral inverse (-Delta + c)^-1 with the shift
c = mean(W). -Delta does not see the constant mode, and mean(W) is the
Rayleigh quotient of the Jacobian on that mode, so the preconditioner is
exact there; at a solution without forcing, Gauss-Bonnet makes it the
topological constant 4 pi |chi|. W = -2K e^{2u} spikes at the atoms (up to
~6e4 near a cusp stage at n = 256) while it stays near its mean elsewhere,
so a shift that follows the spike, such as sqrt(min W max W), mismatches
the low modes where CG spends its iterations.

Every solve given no start nests while n/4 is a grid (n/4 >= MIN_N): it
begins from the same problem solved at n/4 (nested iteration; Brandt,
Math. Comp. 31, 1977), which starts the same way. The levels are
1024 -> 256 -> 64 -> 16 and 512 -> 128 -> 32 -> 8, and only the last, an
8- or 16-point grid, starts from the constant default guess. The n/4
level is the fine operator injected (each kernel of S, K and the forcing
at every fourth node), so it builds no Green kernel; it runs the same
start and Newton loop, but no area quadrature and no Solution: only its
final v is read.
The solution is unique, so the start changes the cost, not the answer:
one cone takes 3 fine Newton steps and 10 CG iterations at n = 1024
instead of 4 and 18 from the default guess, 3 and 11 at n = 256 instead
of 4 and 18, and 3 and 11 at n = 64 instead of 4 and 17. The half
spectrum of the coarse solution is zero-padded into the fine one, its
Nyquist row and column dropped and its coefficients scaled by 16. When
the coarse Newton does not converge, the default guess is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CurvatureSignError, InfeasibleTopology, NonConvergence,
                     ResidualOverflow)
from .green import SingularSplit, _s4, _singular_rows, _singular_sum, singular_part
from .grids import (MIN_N, TAU, Field, _blocks, circle_points, finite_point,
                    gauss_legendre, interpolate, irfft2, laplacian_factors, neg_laplacian,
                    rfft2, torus_distance)
from .measures import Divisor, euler_characteristic

_EXP_LIMIT = 350.0
_MAX_NEWTON = 60
_CG_RTOL = 1e-6
_CG_MAXITER = 2000
_RING_WINDOW = (4.0, 8.0)  # in cells: a ring correction blends the grid out from 4/n to 8/n


@dataclass(frozen=True)
class CurvatureSpec:
    """Prescribed curvature: a constant or a torus Field, with optional
    manufactured forcing added to the right-hand side."""

    curvature: float | Field
    forcing: Field | None = None

    def values(self, n: int):
        if isinstance(self.curvature, Field):
            if self.curvature.n != n:
                raise ValueError("curvature grid does not match the solve grid")
            return self.curvature.values
        return float(self.curvature)


def check_curvature_bounds(curvature: float | Field) -> None:
    """Raise ValueError unless the constant or Field `curvature` is finite
    and negative (sup K < 0, under which a solution exists and is unique)."""
    hi = float(np.max(curvature.values if isinstance(curvature, Field) else curvature))
    if not -math.inf < hi < 0.0:
        got = f"max {hi}" if isinstance(curvature, Field) else hi
        raise ValueError(f"curvature must be finite and negative, got {got}")


@dataclass
class Solution:
    split: SingularSplit
    spec: CurvatureSpec
    v: Field
    residual_norm: float  # sup|F| of the Newton loop's (v, -Delta v); see residual()
    area: float
    gb_defect: float
    newton_iters: int
    cg_iters: int
    cg_capped: int  # inner solves stopped by _CG_MAXITER before CG's stop test
    grid_area: float  # mean(e^{2u}), which the discrete Gauss-Bonnet identity fixes
    rings_rejected: int  # atoms whose ring correction was not credible, so not applied
    rings_overlapping: int  # atom pairs whose ring windows overlap; see metric_area

    @property
    def u_values(self) -> np.ndarray:
        u = self.split.S.values
        u += self.v.values
        return u


def _exp2u(S: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{2(S+v)}, written into `out` when given (it may be S)."""
    out = np.add(S, v, out=out)
    out *= 2.0
    if out.max() > _EXP_LIMIT:
        raise ResidualOverflow("e^{2u} overflows double precision")
    return np.exp(out, out=out)


def _tree_sum(parts: list) -> float:
    """Per-block partial sums combined pairwise: numpy's pairwise sum halves
    2^k >= 256 elements down to 128, so this is the whole ``sum()``'s bits."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])]
    return float(parts[0])


def _dot(a: np.ndarray, b: np.ndarray, blocks: list, tmp: np.ndarray) -> float:
    """sum(a * b) by blocks, through the block array tmp."""
    return _tree_sum([np.multiply(a[s], b[s], out=tmp).sum() for s in blocks])


def _rows(a: float | np.ndarray, s: slice) -> float | np.ndarray:
    """Rows `s` of a grid array; a scalar stands for every row."""
    return a[s] if isinstance(a, np.ndarray) else a


@dataclass(frozen=True)
class _Operator:
    """F(v) = -Delta v - K e^{2(S+v)} + const - rho and the weight
    W = -2K e^{2(S+v)} of its Jacobian -Delta + W; S = -sum_i c_i G_i is
    held as its terms (c_i, G_i), ``SingularSplit.terms``, and formed where
    it is read; kx2 + ky2 is the symbol of -Delta on the half spectrum
    (``grids.laplacian_factors``)."""

    terms: tuple
    K: float | np.ndarray
    const: float
    rho: float | np.ndarray
    kx2: np.ndarray
    ky2: np.ndarray

    @property
    def n(self) -> int:
        return self.kx2.shape[0]

    def S(self) -> np.ndarray:
        """S on the whole grid, formed afresh."""
        return _singular_sum(self.terms, self.n)

    def residual(self, lv: np.ndarray, e2u: np.ndarray, s: slice = slice(None),
                 out: np.ndarray | None = None) -> np.ndarray:
        """F from the samples lv of -Delta v and of e^{2(S+v)} on the grid
        rows `s`, written into `out` when given."""
        return self._add_terms(lv, np.multiply(_rows(self.K, s), e2u, out=out), s)

    def neg_residual(self, lv: np.ndarray, W: np.ndarray, s: slice,
                     out: np.ndarray) -> np.ndarray:
        """-F on the grid rows `s` from lv and the weight W, written into
        `out`: K e^{2u} = W / -2 exactly, since scaling by a power of two
        commutes with rounding, so these are the bits of -residual()."""
        F = self._add_terms(lv, np.divide(W, -2.0, out=out), s)
        return np.negative(F, out=F)

    def _add_terms(self, lv: np.ndarray, ke: np.ndarray, s: slice) -> np.ndarray:
        """lv - K e^{2u} + const - rho on the grid rows `s`, over ke = K e^{2u}."""
        np.subtract(lv, ke, out=ke)
        ke += self.const
        ke -= _rows(self.rho, s)
        return ke

    def weight(self, e2u: np.ndarray, s: slice = slice(None)) -> np.ndarray:
        """W = -2K e^{2(S+v)} on the grid rows `s`, written over the samples e2u."""
        return np.multiply(-2.0 * _rows(self.K, s), e2u, out=e2u)


def _operator(spec: CurvatureSpec, split: SingularSplit) -> _Operator:
    n = split.n
    rho = 0.0
    if spec.forcing is not None:
        if spec.forcing.n != n:
            raise ValueError("forcing grid does not match the solve grid")
        rho = spec.forcing.values
    return _Operator(split.terms, spec.values(n), TAU * split.beta_sum, rho,
                     *laplacian_factors(n))


def _samples(v: Field, split: SingularSplit) -> np.ndarray:
    if v.n != split.n:
        raise ValueError("v grid does not match the singular part")
    return v.values


def residual(v: Field, spec: CurvatureSpec, split: SingularSplit) -> Field:
    """F(v) = -Delta v - K e^{2(S+v)} + 2 pi sum(beta) - forcing.

    -Delta v is recomputed from the samples through a transform pair, so
    the result carries the round-off floor eps (pi n)^2 ||v|| (5.4e-9 at
    n = 1024), far above the default tol; `Solution.residual_norm` is the
    solve's own measure, from the -Delta v the Newton loop carries.
    """
    vv = _samples(v, split)
    op = _operator(spec, split)
    S = op.S()
    return Field(op.residual(neg_laplacian(vv), _exp2u(S, vv, out=S)))


def jacobian_apply(spec: CurvatureSpec, split: SingularSplit,
                   v: Field, w: np.ndarray) -> np.ndarray:
    """Directional derivative of the residual: (-Delta + W) w, W = -2K e^{2u}."""
    vv = _samples(v, split)
    op = _operator(spec, split)
    w = np.asarray(w, dtype=float)
    S = op.S()
    return neg_laplacian(w) + op.weight(_exp2u(S, vv, out=S)) * w


def _cg_work(n: int) -> list:
    """CG's arrays p, lp, x, w, z^, a row block of the half spectrum and one
    of samples. z^ is n(n + 2) doubles, and w is a real view of its first n^2."""
    rows = _blocks(n)[0].stop
    p, lp, x = (np.empty((n, n)) for _ in range(3))
    zhat = np.empty((n, n // 2 + 1), complex)
    w = zhat.view(float).reshape(-1)[:n * n].reshape(n, n)
    return [p, lp, x, w, zhat, np.empty((rows, n // 2 + 1)), np.empty((rows, n))]


def _cg(op: _Operator, W: np.ndarray, shift: float, r: np.ndarray,
        tol: float, work: list) -> tuple:
    """Solve (-Delta + W) x = b, b the array `r` on entry, in place by CG
    preconditioned with (-Delta + shift)^-1, until the recurrence residual r
    has ||r||_2 <= max(_CG_RTOL ||b||_2, tol/2). On return `r` holds that
    residual b - (-Delta + W) x.

    With b = -F and Newton tolerance `tol`, the absolute term stops the inner
    solve once a full step would leave sup |F| about tol/2 (module docstring).

    CG works on samples. The preconditioner solve (k2 + shift) z^ = r^ fixes
    -Delta z = r - shift z with no transform, and p = z + beta p is linear
    in z, so lp = -Delta p follows as lp = (r - shift z) + beta lp. The
    identity only multiplies r^ by k2 / (k2 + shift) <= 1, so round-off is
    not amplified by (pi n)^2 as a transform of k2 p^ would be. One
    iteration costs one rfft2(r) and one irfft2(z^). Since r = b - W x -
    (-Delta x) on return, the caller reads -Delta x = b - r - W x, again
    with no transform.

    Between the transforms the work runs as block sweeps (module docstring),
    in the bits of whole-array passes: 1/(k2 + shift) from the factors of
    k2, a row block at a time, and z^ times it; r.z; p, lp, A p = W p + lp
    and p.Ap; x, r and ||r||^2. The first iteration, beta = 0 from
    p = lp = x = 0, writes p = z, lp = r - shift z and x = alpha p
    directly, so the work arrays are never zero-filled (the bits of the
    recurrence from zero, but for the sign of a zero). z^ * (1/(k2 + shift))
    has the bits of numpy's complex-by-real division z^ / (k2 + shift).

    CG allocates nothing but `work` (from `_cg_work`): the transforms write
    into z^ and into w, the head of z^'s buffer (``grids.irfft2``), which
    holds z and -Delta z and then A p in turn, and the products go through
    the blocks. The Newton loop hands one work set to all its inner solves.
    Arrays freed and reallocated are page-faulted in again whenever the
    allocator has handed them back to the system (the n = 256 ladder ran
    about 7% slower that way), and freed arrays of three sizes leave heap
    holes that raise the peak RSS.

    Returns (x, iterations, whether _CG_MAXITER cut it short); x lives in
    `work`.
    """
    n = op.n
    blocks = _blocks(n)
    p, lp, x, w, zhat, pre, tmp = work
    stop = max(_CG_RTOL * math.sqrt(_dot(r, r, blocks, tmp)), 0.5 * tol)
    rz = math.inf  # beta = 0 on the first iteration
    capped = True
    for iters in range(1, _CG_MAXITER + 1):
        rfft2(r, out=zhat)
        for s in blocks:  # z^ *= 1/(k2 + shift)
            inv = np.add(op.kx2[s], op.ky2, out=pre)
            inv += shift
            zhat[s] *= np.divide(1.0, inv, out=inv)
        z = irfft2(zhat, n, out=w)
        rz_next = _dot(r, z, blocks, tmp)
        beta = rz_next / rz
        rz = rz_next
        pAp = []
        for s in blocks:  # p = z + beta p, lp = (r - shift z) + beta lp, A p
            pb, lpb, zb = p[s], lp[s], z[s]
            if iters == 1:  # beta = 0: p = z, lp = r - shift z
                np.copyto(pb, zb)
                np.subtract(r[s], np.multiply(zb, shift, out=zb), out=lpb)
            else:
                pb *= beta
                pb += zb
                zb *= shift  # z is read for the last time: it becomes r - shift z
                np.subtract(r[s], zb, out=zb)
                lpb *= beta
                lpb += zb
            Ap = np.multiply(W[s], pb, out=zb)
            Ap += lpb
            pAp.append(np.multiply(pb, Ap, out=tmp).sum())
        pAp = _tree_sum(pAp)
        if pAp <= 0.0:
            raise CurvatureSignError(
                "CG met a non-positive curvature direction; the linearized "
                "operator is not definite")
        alpha = rz / pAp
        rr = []
        for s in blocks:  # x += alpha p (x = alpha p at first), r -= alpha A p
            xb, rb, Ap = x[s], r[s], w[s]
            if iters == 1:
                np.multiply(p[s], alpha, out=xb)
            else:
                xb += np.multiply(p[s], alpha, out=tmp)
            Ap *= alpha
            rb -= Ap
            rr.append(np.multiply(rb, rb, out=tmp).sum())
        if math.sqrt(_tree_sum(rr)) <= stop:
            capped = False
            break
    return x, iters, capped


def _default_guess(op: _Operator) -> np.ndarray:
    """Constant v with e^{2v} mean(|K| e^{2S}) = |const| = 2 pi |sum beta|;
    ValueError when |K| puts the mean or v out of double precision."""
    n, K = op.n, op.K
    if op.const == 0.0:
        return np.zeros((n, n))
    with np.errstate(over="ignore"):
        mean = float((np.abs(K) * np.exp(2.0 * op.S())).mean())
    c = 0.5 * math.log(abs(op.const) / mean) if 0.0 < mean < math.inf else math.nan
    if not math.isfinite(c):
        what = "field" if isinstance(K, np.ndarray) else f"{K:g}"
        raise ValueError(f"curvature {what} is out of range for the default guess: "
                         f"mean(|K| e^(2S)) = {mean:g}")
    return np.full((n, n), c)


def _residual_sweep(op: _Operator, v: np.ndarray, lv: np.ndarray, e2u: np.ndarray,
                    F: np.ndarray, tmp: np.ndarray, trial: tuple | None = None) -> tuple:
    """Write e^{2(S+v)} and F into e2u and F, one row block at a time, and
    return (||F||_2^2, sup |F|); each block of S is formed in e^{2u}'s own
    block, and the products go through the block tmp.

    With `trial` = (v0, lv0, d, ld, t) the same sweep first writes the
    Armijo trial v0 + t d and lv0 + t ld into v and lv. A block whose
    exponent overflows raises ResidualOverflow from `_exp2u`.
    """
    sq, sup = [], []
    for s in _blocks(op.n):
        vb, lvb = v[s], lv[s]
        if trial is not None:
            v0, lv0, d, ld, t = trial
            np.multiply(d[s], t, out=vb)
            vb += v0[s]
            np.multiply(ld[s], t, out=lvb)
            lvb += lv0[s]
        eb = _exp2u(_singular_rows(op.terms, s, e2u[s], tmp), vb, out=e2u[s])
        Fb = op.residual(lvb, eb, s, out=F[s])
        sq.append(np.multiply(Fb, Fb, out=tmp).sum())
        sup.append(np.abs(Fb, out=tmp).max())
    return _tree_sum(sq), float(np.max(sup))


def _stalled(what: str, norm: float, wmax: float) -> NonConvergence:
    """NonConvergence naming the residual and the round-off floor of F,
    eps max |K| e^{2u} = eps max W / 2, at the last Newton step's start."""
    return NonConvergence(f"{what} (residual {norm:.3e}, round-off floor "
                          f"eps max|K|e^(2u) = {np.finfo(float).eps * wmax / 2.0:.3e})")


def _newton_loop(op: _Operator, vhat: np.ndarray, tol: float) -> tuple:
    """Damped Newton-CG on `op` from the half spectrum `vhat` to sup |F| <= tol.

    The caller passes `vhat` without keeping it, so the start spectrum is
    freed once v and lv exist. Returns (v, e^{2(S+v)}, sup |F|, Newton steps,
    CG iterations, capped inner solves) at the final iterate.
    """
    n = op.n
    blocks = _blocks(n)
    v = irfft2(vhat, n)
    lv = irfft2((op.kx2 + op.ky2) * vhat, n)
    del vhat
    e2u = np.empty_like(v)
    F = np.empty_like(v)
    work = _cg_work(n)
    ld, tmp = work[3], work[-1]
    phi, norm = _residual_sweep(op, v, lv, e2u, F, tmp)
    cg_total = 0
    cg_capped = 0
    for it in range(_MAX_NEWTON):
        if norm <= tol:
            break
        wsum, peaks = [], []
        for s in blocks:  # W over e2u, CG's right-hand side -F over F
            Wb = op.weight(e2u[s], s)
            wsum.append(Wb.sum())
            peaks.append(Wb.max())
            np.negative(F[s], out=F[s])
        shift = _tree_sum(wsum) / n ** 2  # mean(W), the bits of W.mean()
        wmax = float(max(peaks))
        d, inner, capped = _cg(op, e2u, shift, F, tol, work)
        cg_total += inner
        cg_capped += capped
        for s in blocks:  # -Delta d = b - r - W d, b = -F rebuilt, CG's r over F
            ldb = op.neg_residual(lv[s], e2u[s], s, out=ld[s])
            ldb -= F[s]
            ldb -= np.multiply(e2u[s], d[s], out=tmp)
        # W, CG's r and its p and lp are spent: the trials are written over
        # them, and an accepted trial hands the old v and lv to the next CG
        # as p and lp
        v_try, lv_try = work[:2]
        step = 1.0
        while True:
            try:
                phi_try, norm_try = _residual_sweep(op, v_try, lv_try, e2u, F, tmp,
                                                    (v, lv, d, ld, step))
                if phi_try <= (1.0 - 2e-4 * step) * phi:
                    work[:2] = v, lv
                    v, lv, phi, norm = v_try, lv_try, phi_try, norm_try
                    break
            except ResidualOverflow:
                pass
            step *= 0.5
            if step < 2.0 ** -30:
                raise _stalled(f"line search hit the 2^-30 floor at Newton step {it + 1}",
                               norm, wmax)
        del d, v_try, lv_try
    else:
        raise _stalled(f"Newton did not reach tol={tol:g} within {_MAX_NEWTON} iterations",
                       norm, wmax)
    return v, e2u, norm, it, cg_total, cg_capped


def _start(op: _Operator, v0: Field | None, tol: float) -> np.ndarray:
    """Half spectrum the Newton loop on `op` starts from: v0, else the n/4
    solution while n/4 is a grid, else (or when that does not converge)
    the default guess."""
    if v0 is not None:
        return rfft2(v0.values)
    vhat = _coarse_start(op, tol) if op.n // 4 >= MIN_N else None
    return rfft2(_default_guess(op)) if vhat is None else vhat


def _inject(a: float | np.ndarray) -> float | np.ndarray:
    """Every fourth node of a grid array, as a contiguous copy; a scalar as it is."""
    return np.ascontiguousarray(a[::4, ::4]) if isinstance(a, np.ndarray) else a


def _coarse_start(op: _Operator, tol: float) -> np.ndarray | None:
    """Half spectrum of the n/4 solution of v, zero-padded to n, or None
    when the n/4 Newton loop does not converge. The n/4 operator is `op`
    injected: each kernel of S, K and rho at every fourth node, the
    constant as it is. The factor 16 = (n/m)^2 carries the unnormalized
    forward transform across grid sizes."""
    n, m = op.n, op.n // 4
    coarse = _Operator(tuple((c, _inject(G)) for c, G in op.terms), _inject(op.K),
                       op.const, _inject(op.rho), *laplacian_factors(m))
    try:
        chat = rfft2(_newton_loop(coarse, _start(coarse, None, tol), tol)[0])
    except NonConvergence:
        return None
    chat *= 16.0
    h = m // 2
    vhat = np.zeros((n, n // 2 + 1), dtype=chat.dtype)
    vhat[:h, :h] = chat[:h, :h]
    vhat[n - h + 1:, :h] = chat[h + 1:, :h]
    return vhat


def newton_solve(spec: CurvatureSpec, split: SingularSplit,
                 v0: Field | None = None, tol: float = 1e-10) -> Solution:
    """Solve the prescribed-curvature equation on the torus.

    Requires a negative Euler characteristic of the pair unless a
    manufactured forcing is supplied, strictly conical weights
    (beta > -1; cusps are reached through continuation), and sup K < 0.
    At most 60 Newton steps solve (-Delta + W) delta = -F, W = -2K e^{2u},
    by CG to relative residual 1e-6, or until its 2-norm is under tol/2,
    preconditioned with (-Delta + mean(W))^-1, which is exact on the
    constant mode (sup K < 0 makes W and its mean positive); step lengths
    come from Armijo backtracking on ||F||_2^2 with factor 1/2, slope 1e-4
    and floor 2^-30.
    An inner solve that reaches 2000 iterations keeps its last iterate and
    is counted in `cg_capped`.

    With `v0` None, every solve nests while n/4 is a grid: it starts from
    the same solve at n/4, itself started the same way. S, Field curvature
    and forcing are restricted by injection, and the half spectrum of the
    coarse v is zero-padded to n (Nyquist row and column dropped, scaled by
    16). The smallest level (n = 8 or 16), and any level whose coarse solve
    raises NonConvergence, starts from the constant default guess; any
    other coarse error propagates. `newton_iters`, `cg_iters` and
    `cg_capped` count this grid's Newton loop only; the coarser levels'
    counts are not kept.
    """
    div = split.divisor
    chi = euler_characteristic(div)
    if spec.forcing is None and chi >= 0.0:
        raise InfeasibleTopology(
            f"chi(torus, beta) = {chi:g} >= 0: the equation with K < 0 "
            "has no solution (and no forcing was supplied)")
    for b in div.betas:
        if b <= -1.0:
            raise ValueError(
                "cusp weight beta = -1 cannot be solved directly; "
                "approach it through a continuation schedule")
    check_curvature_bounds(spec.curvature)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")

    if v0 is not None and v0.n != split.n:
        raise ValueError("v0 grid does not match the singular part")

    op = _operator(spec, split)
    v, e2u, norm, it, cg_total, cg_capped = _newton_loop(op, _start(op, v0, tol), tol)

    v_field = Field(v)
    area, grid_area, rejected = metric_area(split, v_field, e2u)
    np.multiply(op.K, e2u, out=e2u)  # the Gauss-Bonnet defect, over e^{2u}
    e2u += op.rho
    gb = abs(float(e2u.mean()) - TAU * chi)
    return Solution(split=split, spec=spec, v=v_field, residual_norm=norm, area=area,
                    gb_defect=gb, newton_iters=it, cg_iters=cg_total,
                    cg_capped=cg_capped, grid_area=grid_area, rings_rejected=rejected,
                    rings_overlapping=_rings_overlapping(div, split.n))


# -- area quadrature ---------------------------------------------------------

def _rings_overlapping(div: Divisor, n: int) -> int:
    """Atom pairs closer than 16/n on the torus, whose ring windows overlap."""
    pts = div.points
    return sum(float(torus_distance(*p, *q)) < 2.0 * _RING_WINDOW[1] / n
               for i, p in enumerate(pts) for q in pts[i + 1:])


def _blended_grid_sum(u2: np.ndarray, px: float, py: float) -> float:
    """Sum of (1 - s4) u2 over the nodes within 8/n of (px, py), s4 rising
    from 0 at 4/n to 1 at 8/n, read off a window of 20 nodes a side (every
    node when n <= 16). The window's rows and columns are sorted, so the
    cells are summed in the whole grid's row-major order, bit for bit."""
    n = u2.shape[0]
    r_na, r_bl = (c / n for c in _RING_WINDOW)
    rows, cols = (np.sort((math.floor(c * n) + np.arange(-9, 11)[:n]) % n) for c in (px, py))
    d = torus_distance((rows / n)[:, None], (cols / n)[None, :], px, py)
    near = d < r_bl
    blend = _s4((d[near] - r_na) / (r_bl - r_na))
    return float(((1.0 - blend) * u2[np.ix_(rows, cols)][near]).sum())


def metric_area(split: SingularSplit, v: Field, e2u: np.ndarray) -> tuple:
    """(area, grid area, rings rejected) of e^{2(S+v)}, whose samples `e2u`
    the caller holds: the grid mean, with analytic polar rings near the atoms.

    Within 8/n of each atom the grid quadrature is blended out and replaced
    by radial integration of r^{2 beta} e^{2(H_i + v)} (H_i the stable
    smooth rest) on 64 angles, using 32 Gauss-Legendre nodes after the
    substitution t = r^{2 beta + 2} that flattens the power law. The
    correction is applied only when it is credible on this grid: exponent
    a = 2 beta + 2 >= 3/4 and |ring - grid| <= ring/4. Near-cusp atoms
    concentrate below grid scale, where the ring quadrature amplifies
    interpolation error; those fall back to the plain grid total, which the
    residual's exact spectral mean pins to the correct value for constant K;
    the count of those atoms is the third entry.

    Windows of atoms closer than 16/n overlap, which the correction does
    not resolve (two beta = -0.5 cones 0.1 to 0.01 apart read 2.1% to 11.9%
    high at n = 64); the area stands, and `Solution.rings_overlapping`
    counts such pairs.
    """
    n = split.n
    grid_area = float(e2u.mean())
    area = grid_area
    r_na, r_bl = (c / n for c in _RING_WINDOW)
    rejected = 0
    for i, ((px, py), beta) in enumerate(zip(split.divisor.points, split.divisor.betas)):
        a = 2.0 * beta + 2.0
        if a < 0.75:
            rejected += 1
            continue
        grid_inner = _blended_grid_sum(e2u, px, py) / (n * n)
        # ring: (1/a) \int_0^{r_bl^a} dt \int dtheta (1-m) e^{2(H_i+v)}
        t_max = r_bl ** a

        def ring_vals(tau):
            r_nodes = (t_max * tau) ** (1.0 / a)
            xs, ys = (c % 1.0 for c in circle_points((px, py), r_nodes[:, None], 64))
            smooth = split.smooth_rest(i, xs, ys) + interpolate(v, xs, ys)
            vals = np.exp(2.0 * smooth).mean(axis=1) * TAU
            return vals * (1.0 - _s4((r_nodes - r_na) / (r_bl - r_na)))

        ring = t_max / a * gauss_legendre(ring_vals, (0.0, 1.0), 32)
        corr = ring - grid_inner
        if abs(corr) <= 0.25 * ring:
            area += corr
        else:
            rejected += 1
    return area, grid_area, rejected


# -- lengths -----------------------------------------------------------------

def radial_length(u, p, delta: float, r0: float) -> float:
    """Length of the ray segment s in [delta, r0] from p along +x in the
    metric e^{2u}.

    ``u`` is a callable u(x, y) on arrays or a Solution. A Solution
    integrates s^beta e^{H + v} with H = smooth_rest(i) when p is its atom i
    of weight beta, and with H = S, beta = 0 off the atoms. The integral is
    taken in t = log s, where a cone's power law and a cusp's log law are
    smooth, by the 32-node Gauss-Legendre rule on quarter-octave panels. For
    a Solution the panels also break where the ray crosses a grid line
    x = k/n, so no panel holds a kink of a bilinear read.
    """
    if not 0.0 < delta < r0 < math.inf:
        raise ValueError(f"need 0 < delta < r0 < inf, got delta = {delta}, r0 = {r0}")
    px, py = finite_point(p)
    a, b = math.log(delta), math.log(r0)
    edges = np.linspace(a, b, math.ceil(4.0 * (b - a) / math.log(2.0)) + 1)
    beta = 0.0
    if not callable(u):
        div, n = u.split.divisor, u.v.n
        atom = next((i for i, q in enumerate(div.points)
                     if float(torus_distance(px, py, *q)) < 1e-12), None)
        beta = 0.0 if atom is None else div.betas[atom]
        s = np.arange(math.floor((px + delta) * n), math.ceil((px + r0) * n)) / n - px
        edges = np.sort(np.concatenate((edges, np.log(s[(s > delta) & (s < r0)]))))
        edges = edges[np.append(True, edges[1:] != edges[:-1])]

    def integrand(t):
        # ds = s dt, so the length element is s^{beta + 1} e^H dt
        x = px + np.exp(t)
        h = u(x, py) if callable(u) else (u.split.smooth_rest(atom, x, py)
                                          + interpolate(u.v, x, py))
        return np.exp((beta + 1.0) * t + h)

    return float(gauss_legendre(integrand, edges, 32))


def solve_divisor(points, betas, curvature=-1.0, n: int = 256,
                  tol: float = 1e-10) -> Solution:
    """Convenience wrapper: build the divisor, split, spec, and solve."""
    split = singular_part(Divisor(tuple(points), tuple(betas)), n)
    return newton_solve(CurvatureSpec(curvature), split, tol=tol)
